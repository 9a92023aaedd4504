(** The gateway-fleet experiment — the multi-entity headline.

    One Samya cluster holds the rate-limiter keys of an API-gateway fleet:
    a million keys bulk-registered cold (quick mode: 20k), Zipfian open-loop
    demand at 100k req/s offered (quick: 5k), per-key quotas sized by
    Little's law. The hot head of the popularity curve heats into full
    per-entity machines and redistributes through the site-level batched
    Avantan instances; the cold tail is served from the compact core
    ledgers. Output: fleet KPIs, the throughput figure, the per-key
    attribution table, the request-path hot-key sketch against it, the
    rendered [samya-slo/1] report and a key-by-key token-conservation
    audit. *)

val key_name : int -> string
(** Key of popularity rank [r] (0 = hottest). *)

val plan : quick:bool -> Scenario.plan
(** One arm, ["fleet"], which is also the traced one. *)

val scenario : Scenario.t
