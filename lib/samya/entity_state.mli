(** Hot per-entity site state, shared by the four site modules.

    Since the multi-entity refactor a {!Site} holds one compact
    {!Entity_map.core} per registered entity — name, dense id, token
    ledger — and materialises one of these records only when the entity
    heats up (first shortfall, protocol participation, or eager
    registration on the legacy single-entity path). {!Request_handler}
    serves and queues against the core ledger and [queue], {!Prediction}
    reads the demand [tracker] and raises the core's [tokens_wanted],
    {!Protocol_driver} runs the attached Avantan instance and applies
    decided values, and {!Redistribution_policy} owns the
    cooldown/backoff/request-scale fields. *)

(** One in-flight peer-borrow conversation (the {!Mechanism} Borrow tier):
    peers still to ask in proximity order, the per-ask patience timer, and
    the triggering request's lineage for the causal mech.borrow phase. *)
type borrow = {
  mutable b_to_ask : int list;
  mutable b_patience : Des.Engine.timer option;
  mutable b_obtained : int;
  b_ctx : Des.Trace_context.t;
  b_t0 : float;
}

type t = {
  core : t Entity_map.core;
      (** the arena slot this record animates: the token ledger
          ([tokens_left]/[acquired_net]/[tokens_wanted]) and the batched
          participation flag live there so cold entities can be served
          without materialising this record *)
  queue :
    (Types.request * Types.reply * Des.Trace_context.t * float) Queue.t;
      (** each entry keeps the causal context it arrived under, restored
          around its eventual service so lineage survives the park, plus
          its effective deadline (the request's own, tightened by
          {!Config.t.deadline_budget_ms} at enqueue time) — entries whose
          deadline passed are discarded, not replayed, when the queue
          drains *)
  mutable queue_peak : int;
      (** high-water mark of this entity's queue — the per-key companion
          of the site-wide {!Request_handler.queued_peak} *)
  tracker : Demand_tracker.t;
      (** per-epoch net token consumption and peak concurrent draw *)
  mutable applied_origins : Consensus.Ballot.Set.t;
      (** decisions already applied — each instance moves tokens exactly
          once, whether it arrives via the protocol or via recovery.
          Persistent, so a {!Durable_image} shares it instead of copying *)
  mutable decided_log : Protocol.value list;
      (** decisions this site has seen (this entity's group of each),
          newest first, capped at
          {!Config.t.decided_log_retention}; answers the Recovery_query of
          a peer that was down when they happened *)
  mutable decided_log_len : int;
  mutable av : Avantan_core.t option;
      (** per-entity protocol machine; [None] under site-level batching *)
  mutable last_redistribution_ms : float;
  mutable last_proactive_check_ms : float;
  mutable backoff_ms : float;
      (** current redistribution spacing: the configured cooldown normally,
          doubled (capped) after each instance that failed to satisfy this
          site — see {!Redistribution_policy} *)
  mutable request_scale : float;
      (** multiplier on the requested headroom, halved after each
          unsatisfied instance — see {!Redistribution_policy} *)
  mutable consec_aborts : int;
      (** consecutive aborted instances; {!Redistribution_policy}'s
          circuit breaker opens once it reaches
          {!Config.Breaker.threshold} *)
  mutable breaker_open_until : float;
      (** absolute time until which the breaker holds this entity to
          local-escrow-only service ([neg_infinity] = closed) *)
  mutable breaker_trips : int;  (** times the breaker has opened *)
  mutable borrow : borrow option;
      (** in-flight peer borrow; [None] unless the entity runs under
          Borrow *)
  mutable ctl_mech : Config.Controller.mechanism;
      (** the mechanism currently handling this entity's shortfalls —
          owned by {!Controller} *)
  mutable ctl_pinned : Config.Controller.policy option;
      (** per-entity policy override (org escalation tiers); [None] = the
          site-wide configured policy *)
  mutable ctl_since_ms : float;  (** when [ctl_mech] was entered (dwell) *)
  mutable ctl_cooldown_until : float;  (** no further switch before this *)
  mutable ctl_win_start : float;  (** current signal window's start *)
  mutable ctl_served : int;  (** window: acquires served from the pool *)
  mutable ctl_shortfall : int;  (** window: shortfall events *)
  mutable ctl_borrows : int;  (** window: borrows finished *)
  mutable ctl_borrow_fails : int;  (** window: unsatisfied borrows *)
  ctl_wait : Obs.Quantile_sketch.t option;
      (** window: engagement latencies (shortfall to mechanism outcome);
          allocated only when the controller is on, and cleared in place
          at each window reset *)
  mutable ctl_switches : int;  (** run statistic: mechanism switches *)
}

val create : engine:Des.Engine.t -> config:Config.t -> core:t Entity_map.core -> t
(** Materialise hot state over a registered core. The caller links it back
    with {!Entity_map.set_hot}; the protocol instance ([av]) is attached
    separately by {!Protocol_driver.attach}. *)

val entity : t -> Types.entity

val core : t -> t Entity_map.core

val restore :
  t ->
  config:Config.t ->
  tokens_left:int ->
  acquired_net:int ->
  applied_origins:Consensus.Ballot.Set.t ->
  decided_log:Protocol.value list ->
  unit
(** Crash-amnesia recovery: overwrite the ledger fields with a durable
    image and reset all volatile state (queue, wanted, pacing). The demand
    tracker is left intact (soft state, prediction quality only); the
    protocol instance is cleared and must be reattached. *)

val participating : t -> bool
(** [true] while this entity's state is exposed to a live protocol
    instance — the interval during which requests must queue. Reads the
    attached machine when one exists, the core's [exposed] flag under
    site-level batching. *)

val parked : t -> bool
(** {!participating}, or a peer borrow in flight — the full "requests must
    queue" predicate; one extra load and branch over [participating]. *)

val initial_mechanism : Config.t -> Config.Controller.mechanism
(** The tier an entity starts under: the pin when the effective policy
    ({!Config.Controller.effective_policy}) is static, so Redistribute
    when the controller is disabled; Escrow (cheapest, serve-while-cold)
    when adaptive. *)

val record_decision : t -> retention:int -> Protocol.value -> unit
(** Prepend a decided value to the recovery log, dropping the oldest entry
    once [retention] values are held. *)

val decided_log : t -> Protocol.value list

val decided_log_length : t -> int

val decisions_for : t -> peer:int -> Protocol.value list
(** The retained decisions whose participant set includes [peer]. *)
