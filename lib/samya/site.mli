(** A Samya site: the thin coordinator over the four Fig. 2 modules.

    The behaviour lives in the per-module implementations, wired together
    over shared {!Entity_state} records at {!create} time:

    - {!Request_handler} — serve [acquireTokens]/[releaseTokens] locally,
      park the acquires that cannot be served while a redistribution or
      borrow is in flight, and fan out global-snapshot reads (§5.8);
    - {!Prediction} — forecaster integration ([predicted_need]), proactive
      trigger checks (Equation 4) and reactive ask sizing (Equation 5);
    - {!Protocol_driver} — Avantan on protocol channels (both variants
      are {!Avantan_core} under different quorum policies): one channel
      per hot entity, or one batch channel for the site under
      [Config.protocol_batch > 1], decided-value application, and the
      bounded decided-log recovery path;
    - {!Redistribution_policy} — cooldown, famine backoff, and
      request-scale heuristics between instances.

    Ablations: {!Config.t} switches off prediction, redistribution, or the
    constraint itself, reproducing the baselines of Figs. 3e/3f. *)

type net_msg =
  | Avantan of { entity : Types.entity; msg : Protocol.msg }
  | Read_query of { entity : Types.entity; rid : int }
  | Read_reply of { entity : Types.entity; rid : int; tokens_left : int }
  | Recovery_query of { entity : Types.entity }
      (** a recovering site asks peers for decided values it may have
          missed while crashed *)
  | Recovery_reply of { entity : Types.entity; decisions : Protocol.value list }
  | Borrow_request of { entity : Types.entity; needed : int }
      (** the borrow mechanism asks a peer for [needed] tokens *)
  | Borrow_grant of { entity : Types.entity; tokens : int }
      (** the lender's answer; [tokens = 0] still advances the borrower's
          conversation to its next peer *)

type t

val anti_entropy_ms : float
(** Period of the decision anti-entropy gossip: each site periodically
    asks peers for decided redistributions involving it and applies any
    it missed (lost Decision messages, aborted recoveries). Idempotent by
    instance origin. *)

val create :
  config:Config.t ->
  network:net_msg Geonet.Network.t ->
  directory:Entity_map.Directory.t ->
  id:int ->
  ?forecaster:Ml.Forecaster.t ->
  ?on_protocol_event:(entity:Types.entity -> Avantan_core.event -> unit) ->
  ?obs:Obs.Sink.port ->
  ?lane:int ->
  unit ->
  t
(** Registers the site's handler with the network at node [id]. The
    site's entity arena resolves names and maxima through [directory],
    which the {!Cluster} shares among all its sites; a cold entity's
    tokens here are site [id]'s equal share of its maximum over the
    network's nodes. Without a
    [forecaster] the site falls back to a persistence forecast of the last
    epoch's demand (prediction can still be disabled entirely via
    [config]). [on_protocol_event] observes every {!Avantan_core.event} of
    every protocol channel — elections, accepts, aborts, decisions with
    round counts — without touching protocol state; [entity] is the
    channel's label (the entity, or {!Protocol_driver.batch_channel}). [obs]
    is the late-bound observability port (default: a fresh one) shared by
    the site's request handler, protocol driver and controller. When the
    always-on incident layer is armed on it ({!Obs.Sink.arm}),
    leader-side protocol outcomes, breaker trips, sheds and mechanism
    switches are recorded into its flight recorder under [lane] (the
    site's hosting-region engine lane), and the attachment's hot-key
    sketch is fed from {!submit}. Disarmed cost is one load and one
    branch per instrumented point. *)

val id : t -> int

val init_entity : t -> eid:int -> tokens:int -> unit
(** Installs this site's initial share of the entity the directory
    resolved to [eid], hot: the core is built from [tokens]
    ({!Entity_map.install}), the per-entity state is materialised and
    attached to the protocol driver immediately, and the site's one
    anti-entropy loop (see {!register_entities}) is armed if it was not.
    Every site must be initialised consistently; {!Cluster} does this. *)

val register_entities : t -> first_eid:int -> count:int -> unit
(** Bulk registration for large fleets, once {!Cluster} has added
    [count] names from [first_eid] to the directory with their maxima.
    Each entity stays cold — nothing in this site's {!arena}, no
    queue/tracker/protocol state — gets its core from its equal share of
    the maximum when this site first touches it, and heats on first
    contention. The site's one anti-entropy loop covers every entity,
    registered either way (querying only entities whose tokens can have
    moved: hot ones and those exposed to a live instance).
    Under crash-amnesia the entities register hot instead, since each
    needs a durable image from the start. *)

val arena : t -> Entity_state.t Entity_map.t
(** This site's ledgers, indexed by the cluster directory's eids. Only
    the site's own lane may materialise a core in it. *)

val entity_count : t -> int
(** Entities registered in the directory, cold or not. *)

val hot_entities : t -> int
(** Entities whose heavyweight state is currently materialised. *)

val submit : t -> Types.request -> reply:Types.reply -> unit
(** A client request as delivered by an app manager (transport latency
    already accounted for by the caller). [reply] is called once, when the
    site commits to granting or refusing the request — possibly much
    later if it is queued behind a redistribution — with the time its
    response leaves the site (see {!Types.reply}): a served request's CPU
    finish, the current time for refusals that cost no CPU. *)

val tokens_left : t -> entity:Types.entity -> int

val acquired_net : t -> entity:Types.entity -> int
(** Granted acquires minus granted releases at this site — summed across
    sites this must never exceed the entity's maximum (Equation 1). *)

val queued : t -> entity:Types.entity -> int

val queue_peak : t -> entity:Types.entity -> int
(** Per-entity high-water mark of the redistribution queue — the per-key
    companion of the site-wide [queued_peak] stat, so overload scenarios
    can show which keys the admission gate is protecting. *)

val breaker_trips : t -> entity:Types.entity -> int
(** Times the redistribution circuit breaker opened for this entity. *)

val breaker_open : t -> entity:Types.entity -> bool

val mechanism : t -> entity:Types.entity -> Config.Controller.mechanism option
(** The {!Mechanism} currently handling this entity's shortfalls
    ([Redistribute] when the controller is disabled); [None] when the
    entity is cold. *)

val mechanism_switches : t -> int
(** Controller mechanism switches across all entities of this site. *)

val borrows : t -> int
(** Borrow conversations finished at this site (as borrower). *)

val borrow_tokens : t -> int
(** Tokens obtained through borrowing (as borrower). *)

val pin_policy : t -> entity:Types.entity -> Config.Controller.policy -> unit
(** Per-entity policy override (the org escalation topology): a static
    pin freezes the entity on that mechanism, an adaptive pin re-enables
    the state machine. Heats the entity. Raises [Invalid_argument] if the
    controller is disabled or the entity unknown. *)

val shed_deadline : t -> int
(** Requests shed on arrival because their deadline had already passed. *)

val shed_admission : t -> int
(** Acquires shed by the CoDel-style admission gate. *)

val shed_queue_expired : t -> int
(** Parked queue entries discarded (not replayed) because their effective
    deadline passed while they were parked. *)

val admission_dropping : t -> bool
(** Is the admission gate currently in drop mode? (test hook) *)

val decided_log_length : t -> entity:Types.entity -> int
(** Entries currently retained for peer recovery; never exceeds
    {!Config.t.decided_log_retention}. *)

val decided_log : t -> entity:Types.entity -> Protocol.value list
(** The retained decided values, newest first (the chaos auditor checks
    cross-site consistency and per-site origin uniqueness over these). *)

val durable_syncs : t -> int
(** Stable-storage flushes performed so far (0 under the freeze model) —
    a proxy for the fsync cost of the configured
    {!Config.t.durability_sync} policy. *)

val participating : t -> entity:Types.entity -> bool

val crash : t -> unit
(** Stops serving, drops queued requests, freezes protocol participation
    (timers are inert while crashed). With {!Config.t.amnesia_on_crash}
    the crash additionally discards all volatile state: unsynced durable
    writes are lost and every timer of the dead incarnation is fenced
    off. *)

val recover : t -> unit
(** Restores service and runs the recovery catch-up: peers are asked for
    redistribution decisions that involved this site while it was down,
    and any missed ones are applied (each instance moves tokens exactly
    once). With {!Config.t.amnesia_on_crash} the per-entity state is first
    rebuilt from the durable image — token ledger, applied-origins dedupe
    set, decided log, and protocol state, resuming any acceptance that
    survived the crash. *)

val alive : t -> bool

type stats = {
  served_acquires : int;
  served_releases : int;
  served_reads : int;
  rejected : int;
  queued_peak : int;
  redistributions_led : int;  (** decided instances this site drove *)
  redistributions_started : int;
  redistributions_aborted : int;
  proactive_triggers : int;
  reactive_triggers : int;
  borrows : int;  (** borrow conversations finished (as borrower) *)
  borrow_tokens : int;  (** tokens obtained through borrowing *)
  mechanism_switches : int;  (** controller switches across entities *)
}

val stats : t -> stats

val protocol_stats : t -> Avantan_core.stats
(** The unified protocol counters, summed over this site's protocol
    channels. *)
