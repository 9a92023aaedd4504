(** The adaptive contention controller: close the loop from observed
    SLO signals to token-movement policy.

    One controller per site, always built, state per entity (on
    {!Entity_state}): each entity runs under one {!Mechanism} at a time —
    escrow while cold, peer borrowing under moderate skew, consensus
    redistribution under sustained pressure. A disabled controller is
    the [Static Redistribute] pin ({!Config.Controller.effective_policy}). Decisions are made on tumbling
    {!Config.Controller.window_ms} windows from three signals:

    - {b contention} — shortfalls / (served + shortfalls);
    - {b borrow failure rate} — fraction of borrow conversations that
      ended with queued demand still uncovered;
    - {b wait p99} — a {!Obs.Quantile_sketch} of engagement latencies
      (shortfall to mechanism outcome).

    The state machine moves one tier at a time
    (Escrow <-> Borrow <-> Redistribute) with hysteresis: escalation
    requires contention at/above [escalate_contention], de-escalation
    requires it below [escalate_contention * deescalate_margin], and
    both are gated by a minimum dwell in the current tier plus a
    cooldown after every switch — an oscillating signal cannot flap the
    mechanism (see the controller test suite). Borrow escalates to
    Redistribute only when its own outcomes degrade ([borrow_fail] or
    p99 over target): peers with spare tokens make borrowing strictly
    cheaper than consensus, peers without make it useless. *)

type signals = { contention : float; borrow_fail : float; p99_ms : float }

type t

val create :
  cfg:Config.Controller.t ->
  engine:Des.Engine.t ->
  site_id:int ->
  ?obs:Obs.Sink.port ->
  ?lane:int ->
  bdeps:Mechanism.borrow_deps ->
  redistribute:Mechanism.t ->
  unit ->
  t
(** Builds the three mechanisms (escrow and borrow internally, the
    redistribute wrapper passed in) and installs the borrow outcome feed
    on [bdeps]. When [obs] has the incident layer armed, mechanism
    switches are recorded into its flight recorder under [lane] (the
    site's hosting-region lane). *)

val mechanism : t -> Entity_state.t -> Mechanism.t
(** The mechanism currently handling this entity's shortfalls. *)

val borrow_deps : t -> Mechanism.borrow_deps

val proactive_allowed : Entity_state.t -> bool
(** Proactive prediction checks only run while the entity's mechanism is
    Redistribute — a static borrow/escrow pin must not quietly trigger
    consensus rounds. *)

val note_served : t -> Entity_state.t -> unit
(** An acquire was served from the local pool (window signal + tick). *)

val note_shortfall : t -> Entity_state.t -> unit
(** A shortfall was dispatched to the current mechanism. *)

val note_redistribution_outcome : t -> Entity_state.t -> aborted:bool -> unit
(** A protocol instance this entity triggered concluded; feeds the wait
    sketch and the redistribute cost EWMA. (Borrow outcomes arrive
    through the {!Mechanism.borrow_deps} finish hook installed by
    {!create}.) *)

val tick : t -> Entity_state.t -> unit
(** Advance the entity's window if due — called from every signal feed,
    exposed for tests. *)

val target :
  cfg:Config.Controller.t ->
  current:Config.Controller.mechanism ->
  signals ->
  Config.Controller.mechanism
(** The pure one-step decision (no dwell/cooldown gating): exposed for
    the hysteresis unit tests. *)

val signals_of : Entity_state.t -> signals
(** The current window's signals. *)

val switches : t -> int
(** Mechanism switches across all entities of this site. *)

val borrows : t -> int
(** Borrow conversations finished. *)

val borrow_tokens : t -> int
(** Tokens obtained through borrowing. *)

val pin : t -> Entity_state.t -> Config.Controller.policy -> unit
(** Per-entity policy override (the org -> team -> key escalation
    topology): a static pin switches the entity to that mechanism
    immediately and freezes it; an adaptive pin re-enables the state
    machine. *)

val pinned : Entity_state.t -> Config.Controller.policy option
