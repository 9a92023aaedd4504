(** The unified system facade (the PR-4 API redesign).

    Every system under test — Samya (both Avantan variants), MultiPaxSys,
    Demarcation and the CockroachDB-like baseline — is driven through one
    first-class record: one client verb ([submit]), fault injection, a
    common [stats] surface, and [subscribe], which installs an
    observability sink across every layer of the system (DES timers,
    geonet hops, protocol events, request counters) in one call.
    Experiments, the chaos soak and the trace exporter consume this
    record only; nothing downstream pattern-matches on system names.

    Every request names its own entity. A builder registers one entity
    and records it in [entity], which single-key workloads target and
    [invariant] audits; the gateway-fleet workloads name keys of a
    bulk-registered {!Samya.Cluster} instead.

    This module also hosts the generic observability wiring
    ({!engine_tracer}, {!network_tracer}) and the Samya adapter. Baseline
    adapters live in [Harness.Systems] (they need no protocol feed), built
    from the same parts. *)

type stats = {
  redistributions : int;
      (** system-specific "coordination events" count: redistribution
          triggers for Samya, borrows for Demarcation, 0 for the
          consensus-per-request baselines *)
  borrows : int;
      (** borrow-mechanism conversations finished (Samya's adaptive
          controller as borrower, or the Demarcation baseline) *)
  borrow_tokens : int;  (** tokens obtained through those borrows *)
  mechanism_switches : int;
      (** adaptive-controller mechanism switches (0 for every system
          without the controller) *)
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
}

type t = {
  name : string;
  now : unit -> float;
      (** virtual time; barrier time on a sharded system — stable at the
          points the harness reads it (setup, global events, end of run) *)
  sched_region : Geonet.Region.t -> Des.Engine.t;
      (** the engine that executes events homed in a region — where the
          driver schedules that region's client issue/reply events *)
  schedule_global : time_ms:float -> (unit -> unit) -> unit;
      (** barrier-aligned scheduling: the only safe slot for fault
          injection on a sharded system (plain [schedule_at] on a
          single-engine baseline) *)
  run_until : float -> unit;
      (** advance the whole simulation (all lanes) to an absolute time *)
  entity : Samya.Types.entity;
      (** the entity the builder registered (the one [invariant]
          audits) *)
  submit :
    region:Geonet.Region.t ->
    Samya.Types.request ->
    reply:(Samya.Types.response -> unit) ->
    unit;
      (** the one client verb: the request names its entity, amount and
          absolute deadline *)
  crash_site : int -> unit;
  recover_site : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
  stats : unit -> stats;
  subscribe : unit -> Obs.Sink.t;
      (** wire a fresh observability sink through every layer of the
          system and return it; call at most once, before driving load.
          Its lanes are the system's: each write lands on the lane that
          executes it, so a subscribed run keeps parallel windows *)
  arm : Obs.Flight_recorder.attachment -> unit;
      (** arm the always-on incident layer (flight recorder + hot-key
          sketch) on the system's port, binding the recorder to its lanes;
          call before driving load. A no-op on baselines. *)
  invariant : maximum:int -> (unit, string) result;
}

(** {2 Observability wiring parts} *)

val engine_tracer : Obs.Sink.t -> Des.Engine.tracer
(** Labelled-timer spans (armed → fired, i.e. timeouts that expired), the
    [des.events] counter and the [des.queue.depth] gauge. *)

val network_tracer :
  context:(unit -> Des.Trace_context.t) -> Obs.Sink.t -> Geonet.Network.tracer
(** Per-hop [net.hop] spans on the destination's lane, [net.*] counters
    and the [net.hop_ms] latency histogram. [context] reads the ambient
    trace context of the engine executing the delivery (on a sharded
    system, the executing lane's engine). Deliveries that carry an ambient
    {!Des.Trace_context} additionally record a causal [Hop] and a
    Perfetto flow arrow ([s]/[f] pair keyed by the hop's edge id) from the
    sender's lane to the receiver's. *)

val name_site_lanes : Obs.Sink.t -> Geonet.Region.t array -> unit
(** Label timeline lane [i] ["site i (region)"]. *)

(** {2 The Samya adapter} *)

type samya_hooks
(** Pre-construction hooks for a Samya cluster: the late-bound
    observability port for {!Samya.Cluster.create}'s [?obs] and a
    protocol-event hook that forwards to both the caller's observer and
    (after [subscribe]) the span builder. Needed because the cluster's
    hooks are fixed at creation, before anyone decides to observe the
    run. *)

val samya_hooks :
  ?on_protocol_event:
    (site:int -> entity:Samya.Types.entity -> Samya.Avantan_core.event -> unit) ->
  unit ->
  samya_hooks

val obs_port : samya_hooks -> Obs.Sink.port

val protocol_event_hook :
  samya_hooks ->
  site:int ->
  entity:Samya.Types.entity ->
  Samya.Avantan_core.event ->
  unit
(** Pass as [Cluster.create ~on_protocol_event]. Calls the user hook
    first, then the subscribed observer (if any) — the observer never
    mutates protocol state, so ordering is cosmetic. *)

val of_samya_cluster :
  ?name:string ->
  hooks:samya_hooks ->
  regions:Geonet.Region.t array ->
  entity:Samya.Types.entity ->
  Samya.Cluster.t ->
  t
(** Wrap a cluster created with [~obs:(obs_port hooks)
    ~on_protocol_event:(protocol_event_hook hooks)]. [subscribe] creates
    a sink over the shard's lanes ({!Des.Shard.executing_lane} and
    {!Des.Shard.epoch}), attaches it to the port, installs engine and
    network tracers, starts the
    Avantan span observer (instance spans with ballot, rounds, role and
    outcome), and names the per-site trace lanes. *)
