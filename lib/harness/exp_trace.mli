(** Trace capture: re-runs an experiment's traced arms through the
    {!Scenario} runner with an observability sink subscribed to each
    facade (DES timers, network hops, Avantan instances, request spans,
    causal request events) and an online SLO monitor fed by the driver,
    then exports Chrome [trace_event] JSON, the flat metrics JSON, the
    [samya-slo/1] report and the critical-path explanation.

    Determinism: each system runs on its own engine with its own sink, and
    captures are assembled in arm order, so every export is byte-identical
    for a given seed regardless of [--jobs] and [--engine-jobs]. The
    functions below take the observed captures {!run} returns. *)

val experiments : string list
(** Traceable experiment ids: "headline" (plus its registry aliases) and
    "prediction" (the fig3f prediction-on/off Samya pair), each tracing
    every system on a shortened horizon (100 s quick, 180 s full), then
    the {!Registry.scenarios}, each tracing its headline arm. *)

val run :
  Lab.context ->
  quick:bool ->
  experiment:string ->
  (Scenario.capture list, string) result
(** Runs the experiment's traced arms ({!Scenario.trace}) and returns the
    captures in fixed order. *)

val trace_json : Scenario.capture list -> string
(** One Chrome-loadable trace; each system is a process, sites and
    clients are its threads, WAN deliveries carry flow arrows. *)

val metrics_json :
  ?meta:(string * string) list -> Scenario.capture list -> string

val slo_json : ?meta:(string * string) list -> Scenario.capture list -> string
(** The [samya-slo/1] document: one entry per system. *)

val summary : Format.formatter -> Scenario.capture list -> unit

val breakdowns : Scenario.capture -> Obs.Critical_path.breakdown list
(** Per-request latency attributions from the causal events of the
    capture's trace log. *)

val mechanism_bucket : string -> string
(** Folds a critical-path component name into the token-movement
    mechanism (or transport/serving layer) that produced the time:
    "borrow", "redistribute", "controller", "local", "client wan",
    "replication" or "other". *)

val explain :
  Format.formatter ->
  ?by_mechanism:bool ->
  slowest:int ->
  Scenario.capture list ->
  unit
(** Per system: traced/completed counts, the attributed fraction of wall
    latency, the aggregate where-the-time-went table and the [slowest]
    requests with their critical paths. [by_mechanism] (default false)
    adds the same aggregate folded through {!mechanism_bucket} — the
    [explain --mechanism] view. Deterministic and byte-identical at any
    [--jobs]. *)

val slo_summary : Format.formatter -> Scenario.capture list -> unit
