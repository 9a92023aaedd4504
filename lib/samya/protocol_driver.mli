(** The protocol-facing module of a site: runs the configured Avantan
    variant (both are the shared {!Avantan_core} machine under different
    quorum policies), applies decided values to the local pool, and owns
    the recovery path over the bounded decided log.

    Every Avantan machine runs on a {e channel}: the machine, the label
    its messages travel under, and the way it freezes an instance's
    scope. With [Config.protocol_batch = 1] every hot entity has its own
    channel, labelled and scoped by that entity. With
    [Config.protocol_batch > 1] the site has one channel, labelled
    {!batch_channel}: triggered entities queue, each instance freezes a
    scope of up to [protocol_batch] of them, and one WAN round piggybacks
    every scoped entity's deltas. Both modes share one code path: a
    channel reports its scope's InitVals labelled by entity, and a decided
    value carries one group per entity, applied as independent per-entity
    projections. The mode decision lives here alone.

    Decision application is idempotent per (entity, instance)
    (origin-keyed) and conserving under races: each site moves its own
    tokens by the delta between its InitVal contribution and the grant
    Algorithm 2 ({!Reallocation.redistribute}) computes from the decided
    group. *)

type t

val create :
  config:Config.t ->
  engine:Des.Engine.t ->
  site_id:int ->
  n_sites:int ->
  entities:Entity_state.t Entity_map.t ->
  send:(entity:Types.entity -> dst:int -> Protocol.msg -> unit) ->
  set_timer:(delay_ms:float -> (unit -> unit) -> Des.Engine.timer) ->
  refresh_wanted:(Entity_state.t -> unit) ->
  register_outcome:(Entity_state.t -> aborted:bool -> satisfied:bool -> unit) ->
  on_event:(Types.entity -> Avantan_core.event -> unit) ->
  ?persist:(Entity_state.t -> unit) ->
  ?obs:Obs.Sink.port ->
  unit ->
  t
(** [entities] is the site's arena: channels resolve the entities in
    their scope through it. [send] and [on_event] receive the channel
    label as [entity]. [persist] is the crash-amnesia durability hook,
    invoked whenever an entity's protocol-critical state changes (see
    {!Avantan_core.env.persist}) and after recovery replay; defaults to a
    no-op (freeze model). [obs] is the late-bound observability port (see
    {!Request_handler.create}): with a sink attached, decisions, aborts
    and applied token deltas feed the [samya.*] metrics. *)

val set_drain : t -> (Entity_state.t -> unit) -> unit
(** Wire the request handler's queue replay, called when an instance
    ends. Deferred past construction to break the handler/driver cycle. *)

val set_heat : t -> (Entity_state.t Entity_map.core -> Entity_state.t) -> unit
(** Wire the site's hot-state materialiser: decided groups heat the
    entities they involve. *)

val batch_channel : Types.entity
(** The reserved label ([""]) the batch channel's messages travel under;
    real entities are validated non-empty. *)

val attach : t -> ?restore:Avantan_core.image -> Entity_state.t -> unit
(** Open the entity's per-entity channel and store its machine in the
    state record; a no-op in batched mode. [restore] rebuilds the fresh
    machine from a durable image and resumes any surviving acceptance
    (crash-amnesia recovery). *)

val trigger : t -> Entity_state.t -> unit
(** Start a redistribution as leader (no-op while already
    participating). In batched mode this enqueues the entity for the
    batch channel's next scope instead. *)

val handle : t -> channel:Types.entity -> src:int -> Protocol.msg -> unit
(** Deliver a message that travelled under the label [channel]. *)

val recovery_decisions : t -> Entity_state.t -> peer:int -> Protocol.value list
(** What to answer a recovering peer: the retained decisions whose
    participant set includes it. *)

val apply_recovery : t -> Entity_state.t -> Protocol.value list -> unit
(** Apply a peer's recovery reply in instance (ballot) order; each value
    applies its group labelled with the entity. *)

val stats : t -> Avantan_core.stats
(** The counters of every channel of the site, summed. *)
