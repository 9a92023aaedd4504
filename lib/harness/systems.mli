(** Builders for the systems under test — Samya (either Avantan
    variant), Demarcation/Escrow, MultiPaxSys and the CockroachDB-like
    system — all returning the unified {!Facade.t} record (re-exported
    here as {!facade}). The last two are one module,
    {!Baselines.Replicated}, behind one adapter. Experiments, chaos and
    the trace exporter drive every system through this one interface —
    there is no per-system dispatch downstream of this module. Each
    builder registers one entity ([~entity], recorded in the record's
    [entity]); clients reach it, or any other key, through [submit]
    alone. *)

type stats = Facade.stats = {
  redistributions : int;
  borrows : int;
  borrow_tokens : int;
  mechanism_switches : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
}

type facade = Facade.t = {
  name : string;
  now : unit -> float;  (** virtual (barrier) time *)
  sched_region : Geonet.Region.t -> Des.Engine.t;
      (** engine executing a region's client events *)
  schedule_global : time_ms:float -> (unit -> unit) -> unit;
      (** barrier-aligned slot for fault injection *)
  run_until : float -> unit;  (** advance all lanes to an absolute time *)
  entity : Samya.Types.entity;
      (** the entity the builder registered: a stream request that names
          no entity ([""]) targets it *)
  arrival_ms : region:Geonet.Region.t -> issue_ms:float -> float;
      (** when a send issued at [issue_ms] arrives (its outbound leg
          drawn, where the system folds it into the send) *)
  arrive : region:Geonet.Region.t -> issue_ms:float -> unit;
      (** the next [submit] from [region], in this event, is that send's
          arrival, served in place *)
  submit :
    region:Geonet.Region.t ->
    Samya.Types.request ->
    reply:(Samya.Types.response -> unit) ->
    unit;
  crash_site : int -> unit;  (** crash one server by its own index *)
  recover_site : int -> unit;
      (** bring a crashed server back (Samya honours
          [Config.amnesia_on_crash]; baselines restore frozen state) *)
  partition : int list list -> unit;  (** groups of server indices *)
  heal : unit -> unit;
  stats : unit -> stats;
  subscribe : unit -> Obs.Sink.t;
      (** wire a fresh observability sink through every layer and return
          it; call at most once, before driving load *)
  arm : Obs.Flight_recorder.attachment -> unit;
      (** arm the always-on incident layer (flight recorder + hot-key
          sketch); no-op on baselines *)
  invariant : maximum:int -> (unit, string) result;
}

val samya :
  ?seed:int64 ->
  ?engine_jobs:int ->
  ?name:string ->
  config:Samya.Config.t ->
  regions:Geonet.Region.t array ->
  ?forecaster:Ml.Forecaster.t ->
  ?on_protocol_event:
    (site:int -> entity:Samya.Types.entity -> Samya.Avantan_core.event -> unit) ->
  entity:Samya.Types.entity ->
  maximum:int ->
  unit ->
  facade
(** A Samya cluster under either Avantan variant (named from
    [config.variant] unless [?name] overrides). [on_protocol_event] taps
    the structured {!Samya.Avantan_core.event} feed of every site; it
    composes with the span observer installed by [subscribe].
    [engine_jobs] is the shard's worker-domain count as in
    {!Samya.Cluster.create}; when omitted it follows the process-wide
    {!Pool.engine_jobs} default (the CLI's [--engine-jobs] knob). *)

val demarcation :
  ?seed:int64 ->
  ?regions:Geonet.Region.t array ->
  entity:Samya.Types.entity ->
  maximum:int ->
  unit ->
  facade
(** The demarcation/escrow baseline; [stats.redistributions] counts
    completed borrows. *)

val multipaxsys :
  ?seed:int64 -> entity:Samya.Types.entity -> maximum:int -> unit -> facade
(** {!Baselines.Replicated.multipaxsys}: client requests reach the leader
    through the nearest replica gateway, so a partition that separates a
    client's side from the leader makes that client's requests fail, as
    in Fig. 3d. *)

val cockroach :
  ?seed:int64 -> entity:Samya.Types.entity -> maximum:int -> unit -> facade
(** {!Baselines.Replicated.cockroach}: returned with the first election
    settled; the leaseholder is every client's gateway. *)
