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

    Every system runs on a {!Des.Shard} (a baseline on one lane), and
    {!of_shard} is the one place a record's scheduling surface and
    observability wiring are built from it. This module also hosts the
    Samya adapter; baseline adapters live in [Harness.Systems] (they need
    no protocol feed), built with the same {!of_shard}. *)

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
      (** virtual barrier time — stable at the points the harness reads
          it (setup, global events, end of run) *)
  sched_region : Geonet.Region.t -> Des.Engine.t;
      (** the engine that executes events homed in a region — where the
          driver schedules that region's client issue/reply events *)
  schedule_global : time_ms:float -> (unit -> unit) -> unit;
      (** barrier-aligned scheduling: the only safe slot for fault
          injection *)
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

(** {2 Building a facade from a shard} *)

val clock : Des.Shard.t -> Obs.Lane_log.clock
(** The shard's lanes as a per-lane log clock: the executing lane
    ({!Des.Shard.executing_lane}), the barrier epoch and each lane's
    virtual time (barrier time for lane [-1]). Observability sinks and the
    flight recorder write through it. *)

val of_shard :
  Des.Shard.t ->
  sched_region:(Geonet.Region.t -> Des.Engine.t) ->
  name:string ->
  regions:Geonet.Region.t array ->
  entity:Samya.Types.entity ->
  obs:Obs.Sink.port ->
  set_net_tracer:(Geonet.Network.tracer option -> unit) ->
  observe:(context:(unit -> Des.Trace_context.t) -> Obs.Sink.t -> unit) ->
  submit:
    (region:Geonet.Region.t ->
    Samya.Types.request ->
    reply:(Samya.Types.response -> unit) ->
    unit) ->
  crash_site:(int -> unit) ->
  recover_site:(int -> unit) ->
  partition:(int list list -> unit) ->
  heal:(unit -> unit) ->
  stats:(unit -> stats) ->
  arm:(Obs.Flight_recorder.attachment -> unit) ->
  invariant:(maximum:int -> (unit, string) result) ->
  t
(** A record over a system running on [shard]: [now], [schedule_global]
    and [run_until] are the shard's own, [sched_region] maps a client
    region to its lane's engine, and the remaining fields are the
    system's. [subscribe] creates a sink over {!clock}, attaches it to
    [obs], installs {!engine_tracer} on every lane engine and
    {!network_tracer} through [set_net_tracer] (reading the executing
    lane's ambient trace context, none between windows), then calls
    [observe] for the system's own feeds and names one trace lane per
    entry of [regions]. *)

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
    ~on_protocol_event:(protocol_event_hook hooks)], through {!of_shard}
    over its shard. [subscribe] also starts the Avantan span observer
    (instance spans with ballot, rounds, role and outcome); [arm] binds
    the recorder to {!clock} and arms the cluster
    ({!Samya.Cluster.arm_flight}). *)
