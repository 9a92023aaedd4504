(** The Request Handler Module of a site (§4.1): serves acquires and
    releases against the local token pool, models the per-request CPU
    occupancy, parks the acquires that do not fit while a redistribution
    or borrow is in flight, and fans global-snapshot reads out to all
    peers (§5.8).

    It is wired to the rest of the site through {!deps}: {!Prediction}
    runs the proactive check, and every shortfall goes to the entity's
    current {!Mechanism}, chosen by the site's {!Controller} (the
    redistribute mechanism sizes its ask with {!Prediction}, gates it
    with {!Redistribution_policy} and starts a {!Protocol_driver}
    instance). Engagements drain the queue when they end.

    While an engagement is in flight, the site still serves every
    release in place. During a borrow it also serves an acquire the pool
    covers with nothing queued ahead of it, and a release or a borrow
    grant serves the queue's fitting prefix in FIFO order. While the
    entity takes part in an Avantan instance, acquires park until the
    outcome. *)

type deps = {
  alive : unit -> bool;
  proactive : Entity_state.t -> unit;
  broadcast_read_query : entity:Types.entity -> rid:int -> unit;
  persist : Entity_state.t -> unit;
      (** durability hook after a served request moves the token ledger;
          a no-op under the freeze model *)
  heat : Entity_state.t Entity_map.core -> Entity_state.t;
      (** materialise hot state for a cold entity that can no longer be
          served from its core ledger alone *)
  controller : Controller.t;
      (** owns each entity's current {!Mechanism}, which serves every
          shortfall outside queue replay *)
}

type t

val create :
  config:Config.t ->
  engine:Des.Engine.t ->
  site_id:int ->
  n_sites:int ->
  ?obs:Obs.Sink.port ->
  ?lane:int ->
  deps ->
  t
(** [obs] is a late-bound observability port (default: a fresh, never
    attached one). While no sink is attached the instrumented paths cost
    one load-and-branch each; with a sink they feed the [samya.*]
    counters, the queue-depth gauge, and the causal request log
    (accept / enqueue / dequeue / cpu-wait / service / read-fan-out
    events stamped with [site_id]). Requests that arrive without an
    ambient {!Des.Trace_context} get a fresh root stamped here.

    When the always-on incident layer is armed on [obs], shed decisions
    (deadline / admission / queue expiry) are recorded into its flight
    recorder under [lane] (the site's hosting-region engine lane), at
    the same one-load-one-branch disarmed cost. *)

val accept_core :
  t -> Entity_state.t Entity_map.core -> Types.request -> Types.reply -> unit
(** Dispatch a validated acquire/release on an entity that may still be
    cold: releases and in-pool acquires of a cold entity are served
    straight from the core ledger (no queue, no demand tracking); anything
    else heats the entity via [deps.heat], records demand, then serves
    locally, or parks an acquire that does not fit while an engagement is
    in flight. Read requests must go to {!serve_read} instead.

    The reply is called once, when the site commits to its response (see
    {!Types.reply}): a served request holds the site's CPU for
    {!Config.t.local_processing_ms} after any backlog, and its [at_ms]
    is the end of that occupancy; no event is scheduled for it.

    Overload shedding runs first, before any CPU occupancy or ledger
    movement: a request whose deadline has already passed, or an acquire
    arriving while the CoDel-style admission gate is in drop mode
    ({!Config.Admission.target_ms}), is answered
    {!Types.Rejected_deadline} synchronously. *)

val drain_queue : ?reject_unservable:bool -> t -> Entity_state.t -> unit
(** Replay the queue after an engagement (instance or borrow) ended;
    requests re-queue if a new one started meanwhile. While the entity is
    still engaged (a borrow grant landed, or one of two engagements
    ended), only the queue's fitting prefix is served. Entries whose
    effective deadline passed while parked are discarded with a cheap
    {!Types.Rejected_deadline} instead of being replayed.
    [reject_unservable] (default [false]) rejects acquires the pool
    still cannot cover instead of letting them re-engage — used after a
    borrow that ended short, so a starved entity cannot loop. *)

val serve_read :
  t ->
  ?deadline_ms:float ->
  entity:Types.entity ->
  own:int ->
  Types.reply ->
  unit
(** Start a global-snapshot read: [own] tokens plus a fan-out to peers,
    answered after quorum-of-all or timeout. A read already past
    [deadline_ms] (default [infinity]) is shed like the write path. *)

val on_read_reply : t -> rid:int -> tokens_left:int -> unit

val on_crash : t -> unit
(** Drop in-flight reads (their timers no-op on the dead read id). *)

val served_acquires : t -> int
val served_releases : t -> int
val served_reads : t -> int
val rejected : t -> int
val queued_peak : t -> int
val reactive_triggers : t -> int

val shed_deadline : t -> int
(** Requests refused because they arrived already past their deadline. *)

val shed_admission : t -> int
(** Acquires refused by the admission gate's drop mode. *)

val shed_queue_expired : t -> int
(** Parked queue entries discarded (not served) because their
    effective deadline passed while they were parked. *)

val admission_dropping : t -> bool
(** Is the admission gate currently in drop mode? (test hook) *)
