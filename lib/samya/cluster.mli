(** A complete Samya deployment: region-sharded simulation, geo network,
    sites, and the app-manager routing layer between clients and sites.

    App managers are stateless relays co-located with clients (the paper's
    evaluation merges them, §5.2); routing picks the nearest live site and
    fails over to the next-nearest when a region's site is down. Client
    transport latency (client → app manager → site and back) is simulated
    on top of the inter-site network's latency model. A served request
    costs two simulation events, one per client leg: the site answers when
    it commits to a response, and the return leg leaves at the site's CPU
    finish ({!Types.reply}).

    The cluster also exposes the failure injection (crashes, partitions)
    and the global accounting used by the invariant checks and the
    experiment harness. *)

type t

val create :
  ?seed:int64 ->
  ?engine_jobs:int ->
  config:Config.t ->
  regions:Geonet.Region.t array ->
  ?forecaster:Ml.Forecaster.t ->
  ?drop_probability:float ->
  ?on_protocol_event:(site:int -> entity:Types.entity -> Avantan_core.event -> unit) ->
  ?obs:Obs.Sink.port ->
  unit ->
  t
(** One site per entry of [regions] (node ids follow array order). The
    forecaster, when given, is shared by all sites' Prediction Modules.
    [on_protocol_event] observes every protocol instance of every site —
    see {!Site.create}. [obs] is the one late-bound observability port
    shared by every site's request handler, protocol driver and
    controller (a facade's [subscribe] attaches a sink to it, and
    {!arm_flight} arms the incident layer on it); without it the cluster
    makes its own.

    Every deployment is region-sharded (see {!Des.Shard}): one lane per
    distinct hosting region, so a cluster whose sites all share a region
    runs on a one-lane shard. [engine_jobs] (default [1]) is the number
    of domains draining the lanes' windows; results are byte-identical
    for every value — it changes wall time only. Raises
    [Invalid_argument] if [engine_jobs < 1]. *)

val engine : t -> Des.Engine.t
(** Lane 0's engine. Scheduling onto it directly is only correct for
    events homed in lane 0's region; drive the simulation with
    {!run_until}, schedule client work on {!engine_of_region} and faults
    with {!schedule_global}. Its one caller is the [None] branch of
    [perfbench/probe.ml]'s {!shard} match. *)

val shard : t -> Des.Shard.t option
(** The shard coordinator — always [Some]: every deployment, and every
    baseline, runs on a {!Des.Shard}. The option survives only for
    [perfbench/probe.ml], which still matches on it; library code reads
    it with [Option.get]. *)

val lanes : t -> int
(** Number of simulation lanes (distinct hosting regions). *)

val engine_of_region : t -> Geonet.Region.t -> Des.Engine.t
(** The engine that executes events homed in [region] — where the driver
    schedules that region's client issue events. *)

val now : t -> float
(** Virtual barrier time: meaningful between {!run_until} windows and at
    global events. From inside an event, read the executing lane's engine
    clock instead. *)

val run_until : t -> until_ms:float -> unit
(** Advance every lane of the simulation to [until_ms]. *)

val schedule_global : t -> time_ms:float -> (unit -> unit) -> unit
(** Schedule a barrier-aligned event — the only safe way to mutate
    cross-lane shared state (crashes, partitions, link faults): it runs
    alone between windows, with every lane clock at [time_ms]. *)

val network : t -> Site.net_msg Geonet.Network.t
val n_sites : t -> int
val site : t -> int -> Site.t
val sites : t -> Site.t array

(** {2 Registration}

    The cluster owns one {!Entity_map.Directory} (sharded by
    {!Config.t.entity_shards}, sized by {!Config.t.entity_capacity}):
    each name is resolved to a dense eid once, and every site's arena
    holds its share at that eid. Registration writes the directory, which
    lanes read concurrently inside windows, so the functions below raise
    [Invalid_argument] when called inside a window (from a lane-local
    event); call them before running or from a {!schedule_global}
    callback. Each is all-or-nothing: a rejected call leaves every site
    and the directory unchanged. The empty name is reserved. *)

val init_entity : t -> entity:Types.entity -> maximum:int -> unit
(** Splits [maximum] tokens equally across sites (remainder to the lowest
    ids), as in the paper's setup (M_e = 5000 over 5 sites → 1000 each).
    Raises [Invalid_argument] on a negative maximum or a duplicate name. *)

val init_entity_shares : t -> entity:Types.entity -> shares:int array -> unit
(** Uneven initial allocation (e.g. derived from historic demand). Raises
    [Invalid_argument] unless there is one non-negative share per site,
    or on a duplicate name. *)

val register_entities : t -> (Types.entity * int) list -> unit
(** Bulk fleet registration: each [(entity, maximum)] is split equally
    across sites like {!init_entity}, but the entities start cold —
    compact cores that heat on first contention ({!Site.register_entities}).
    List order fixes the dense entity ids. Raises [Invalid_argument] on a
    negative maximum or a duplicate name (within the batch or already
    registered) before any site changes. *)

val entity_count : t -> int
(** Registered entities (the directory's size). *)

val hot_entities : t -> int
(** Materialised hot entities, summed over sites. *)

val submit :
  t -> region:Geonet.Region.t -> Types.request -> reply:(Types.response -> unit) -> unit
(** Client request from [region]: routed via the local app manager to the
    nearest live site; [reply] fires when the response reaches the client
    (transport + service + queueing latency included). With no live site
    reachable the reply is [Unavailable]. *)

val submit_to_site : t -> site:int -> Types.request -> reply:Types.reply -> unit
(** Bypass routing and client legs (tests, probes): {!Site.submit} on
    site [site], whose [reply] is called when the site commits, with the
    time the response leaves it. Call it from the site's own lane. *)

val crash_site : t -> int -> unit
val recover_site : t -> int -> unit
val partition : t -> int list list -> unit
val heal : t -> unit

val arm_flight : t -> Obs.Flight_recorder.attachment -> unit
(** Arm the always-on incident layer on the cluster's port: sites record
    protocol outcomes, breaker trips, sheds and mechanism switches, the
    cluster records injected faults (lane -1), and the attachment's
    hot-key sketch is fed from the request path. The sketch's lane slots
    are reserved here; the caller binds the recorder to the shard's lane
    clock first ([Facade.of_samya_cluster]'s [arm] does). Does {e not}
    force sequential windows: each lane writes its own buffer and slot.
    Dumps are byte-identical at any [--engine-jobs]. *)

val total_tokens_left : t -> entity:Types.entity -> int
val total_acquired : t -> entity:Types.entity -> int

val check_invariant : t -> entity:Types.entity -> maximum:int -> (unit, string) result
(** Equation 1 plus token conservation: [0 <= total_acquired <= maximum]
    and [total_tokens_left + total_acquired = maximum]. Meaningful at
    quiescent points (no decision deliveries in flight). Resolves the
    name once and reads every site's ledger by eid; reads leave cold
    entities cold and allocate nothing. *)

val pin_policy : t -> entity:Types.entity -> Config.Controller.policy -> unit
(** {!Site.pin_policy} on every site: pin the entity's token-movement
    policy cluster-wide (the org escalation topology applies its tier
    pins through this). Requires {!Config.Controller.enabled}. *)

val total_redistributions : t -> int
(** Decided instances, summed over leading sites (the paper's
    "208 vs 792 redistributions" metric). *)

val aggregate_site_stats : t -> Site.stats
(** {!Site.stats} summed over all sites ([queued_peak] takes the max). *)

val aggregate_protocol_stats : t -> Avantan_core.stats
(** The unified {!Avantan_core.stats}, summed over all sites and
    entities (both variants share the one counter set). *)
