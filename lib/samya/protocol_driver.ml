(* A channel: one Avantan machine, the label its messages travel under,
   and the way it freezes an instance's scope. Per-entity mode
   (protocol_batch = 1) gives every hot entity a channel labelled and
   scoped by that entity; batched mode gives the site one channel,
   labelled [batch_channel], whose instances freeze up to
   [protocol_batch] queued triggers. The record holds what the machine's
   env closes over; the machine itself is the owner's [av], or [batch]. *)
type channel = {
  label : Types.entity;
  owner : Entity_state.t option;
      (** the entity a per-entity channel is bound to; [None] on the batch
          channel *)
  mutable exposed : Types.entity list;
      (** entities whose InitVal left on this channel since its last
          outcome, newest first *)
}

type t = {
  config : Config.t;
  engine : Des.Engine.t;
  site_id : int;
  n_sites : int;
  entities : Entity_state.t Entity_map.t;
  send : entity:Types.entity -> dst:int -> Protocol.msg -> unit;
  set_timer : delay_ms:float -> (unit -> unit) -> Des.Engine.timer;
  refresh_wanted : Entity_state.t -> unit;
  register_outcome : Entity_state.t -> aborted:bool -> satisfied:bool -> unit;
  on_event : Types.entity -> Avantan_core.event -> unit;
  persist : Entity_state.t -> unit;
      (** durability hook (crash-amnesia); a no-op under the freeze model *)
  obs : Obs.Sink.port;
  mutable drain : Entity_state.t -> unit;
      (** request handler's queue replay; wired after construction to
          break the handler/driver cycle *)
  mutable heat : Entity_state.t Entity_map.core -> Entity_state.t;
      (** hot-state materialisation, wired by the site *)
  mutable batch : Avantan_core.t option;
      (** the batch channel's machine; [Some] iff [protocol_batch > 1] *)
  pending : Types.entity Queue.t;  (** triggers queued for the batch channel *)
  pending_set : (Types.entity, unit) Hashtbl.t;
}

let obs_incr t name =
  match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink -> Obs.Metrics.incr (Obs.Metrics.counter sink.Obs.Sink.metrics name)

let obs_observe t name v =
  match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink ->
      Obs.Metrics.observe (Obs.Metrics.histogram sink.Obs.Sink.metrics name) v

let set_drain t f = t.drain <- f

let set_heat t f = t.heat <- f

let now t = Des.Engine.now t.engine

(* The reserved label of the batch channel: real entities are validated
   non-empty at registration. *)
let batch_channel = ""

(* Apply one decided group's reallocation as a delta against the InitVal
   this site contributed — idempotent per (entity, instance) and
   conserving under races; see DESIGN.md. The decided log records the
   per-entity projection, so recovery answers stay per-entity. Returns
   whether this site's request was satisfied (None when the group does not
   involve it or was already applied). *)
let apply_group t (ctx : Entity_state.t) ~origin (g : Protocol.group) =
  if Consensus.Ballot.Set.mem origin ctx.applied_origins then None
  else begin
    ctx.applied_origins <- Consensus.Ballot.Set.add origin ctx.applied_origins;
    Entity_state.record_decision ctx
      ~retention:t.config.Config.decided_log_retention
      { Protocol.origin; groups = [ g ] };
    let mine =
      List.find_opt
        (fun (e : Protocol.site_entry) -> e.site = t.site_id)
        g.Protocol.g_entries
    in
    match mine with
    | Some init_entry ->
        let grants =
          Reallocation.redistribute_with t.config.Config.reallocation_policy
            g.Protocol.g_entries
        in
        let grant =
          List.find (fun (g : Reallocation.grant) -> g.site = t.site_id) grants
        in
        let delta = grant.Reallocation.new_tokens_left - init_entry.tokens_left in
        ctx.core.tokens_left <- ctx.core.tokens_left + delta;
        obs_observe t "samya.apply.delta_tokens" (Float.abs (float_of_int delta));
        Some (init_entry.tokens_wanted = 0 || grant.Reallocation.wanted_satisfied)
    | None -> None
  end

(* Apply a decided value's group for one entity, matched by label. *)
let apply_value t (ctx : Entity_state.t) (value : Protocol.value) =
  match
    List.find_opt
      (fun (g : Protocol.group) ->
        String.equal g.Protocol.g_entity (Entity_state.entity ctx))
      value.Protocol.groups
  with
  | Some g -> apply_group t ctx ~origin:value.Protocol.origin g
  | None -> None

(* This site's InitVal for every entity in scope, labelled by entity. The
   moment an InitVal leaves for (or seeds) an instance its entity is
   exposed; cold entities contribute their core ledger without heating. *)
let local_state t ch ~scope =
  List.filter_map
    (fun entity ->
      match Entity_map.find t.entities entity with
      | None -> None
      | Some core ->
          if not core.Entity_map.exposed then begin
            core.Entity_map.exposed <- true;
            ch.exposed <- entity :: ch.exposed
          end;
          Some
            ( entity,
              {
                Protocol.site = t.site_id;
                (* A site can be in debt (negative ledger) after an
                   abort-then-redecide race: the carried accept state lets
                   a later leader re-decide a value whose InitVal predates
                   grants this site served believing the instance dead.
                   Debt stays local — the site exposes zero spare and
                   repays as releases come home; deltas are applied
                   against the exposed entry, so the global sum is
                   untouched. *)
                tokens_left = max 0 core.Entity_map.tokens_left;
                tokens_wanted = core.Entity_map.tokens_wanted;
              } ))
    scope

let refresh_wanted t ~scope =
  List.iter
    (fun entity ->
      match Entity_map.find t.entities entity with
      | Some { Entity_map.hot = Some ctx; _ } -> t.refresh_wanted ctx
      | Some _ | None -> ())
    scope

(* An entity queued for the batch channel can join its next scope unless
   a live instance already holds its InitVal. *)
let unexposed t entity =
  match Entity_map.find t.entities entity with
  | Some core -> not core.Entity_map.exposed
  | None -> false

(* Freeze the next instance's scope: a per-entity channel's one entity,
   or the batch channel's pending triggers up to [protocol_batch],
   skipping entities already exposed to a live instance. *)
let freeze t ch =
  match ch.owner with
  | Some _ -> [ ch.label ]
  | None ->
      let rec take acc k =
        if k = 0 then List.rev acc
        else
          match Queue.take_opt t.pending with
          | None -> List.rev acc
          | Some entity ->
              Hashtbl.remove t.pending_set entity;
              if unexposed t entity then take (entity :: acc) (k - 1)
              else take acc k
      in
      let scope = take [] t.config.Config.protocol_batch in
      obs_observe t "samya.batch.scope" (float_of_int (List.length scope));
      scope

(* Start another batched instance if triggered entities are still waiting
   (the machine is idle again once its on_outcome ran). *)
let kick t =
  match t.batch with
  | Some av ->
      if Queue.fold (fun acc e -> acc || unexposed t e) false t.pending then
        Avantan_core.start av
  | None -> ()

let dedup_keep_first entities =
  List.fold_left
    (fun acc e -> if List.mem e acc then acc else e :: acc)
    [] entities
  |> List.rev

(* An instance concluded. It touches the channel's own entity (per-entity
   channels, even when no InitVal left), every exposed entity and every
   decided group. Apply each decided group as a per-entity delta (heating
   entities the decision involves) and report it to the redistribution
   policy; on abort report every touched entity. Then release the
   exposures and drain the released queues in that order. *)
let on_outcome t ch outcome =
  let exposed = List.rev ch.exposed in
  ch.exposed <- [];
  let now_ms = now t in
  let touched =
    dedup_keep_first
      ((match ch.owner with Some _ -> [ ch.label ] | None -> [])
      @ exposed
      @
      match outcome with
      | Protocol.Decided value ->
          List.map (fun g -> g.Protocol.g_entity) value.Protocol.groups
      | Protocol.Aborted -> [])
  in
  (match outcome with
  | Protocol.Decided value ->
      obs_incr t "samya.protocol.decided";
      if Option.is_none ch.owner then
        obs_observe t "samya.batch.decided_groups"
          (float_of_int (List.length value.Protocol.groups));
      List.iter
        (fun (g : Protocol.group) ->
          match Entity_map.find t.entities g.Protocol.g_entity with
          | None -> ()
          | Some core ->
              let ctx =
                match core.Entity_map.hot with Some c -> c | None -> t.heat core
              in
              ctx.Entity_state.last_redistribution_ms <- now_ms;
              (match apply_group t ctx ~origin:value.Protocol.origin g with
              | Some satisfied -> t.register_outcome ctx ~aborted:false ~satisfied
              | None -> ());
              core.Entity_map.tokens_wanted <- 0)
        value.Protocol.groups
  | Protocol.Aborted ->
      obs_incr t "samya.protocol.aborted";
      List.iter
        (fun entity ->
          match Entity_map.find t.entities entity with
          | Some ({ Entity_map.hot = Some ctx; _ } as core) ->
              ctx.Entity_state.last_redistribution_ms <- now_ms;
              t.register_outcome ctx ~aborted:true
                ~satisfied:(core.Entity_map.tokens_wanted = 0);
              core.Entity_map.tokens_wanted <- 0
          | Some core -> core.Entity_map.tokens_wanted <- 0
          | None -> ())
        touched);
  let cores = List.filter_map (Entity_map.find t.entities) touched in
  List.iter (fun core -> core.Entity_map.exposed <- false) cores;
  List.iter
    (fun core ->
      match core.Entity_map.hot with Some ctx -> t.drain ctx | None -> ())
    cores;
  kick t

(* The one Avantan env builder: the configured variant (both are the
   shared {!Avantan_core} machine under different quorum policies) on one
   channel. *)
let open_channel t ch =
  Avantan_core.create
    ~policy:(Avantan_core.policy_of_variant t.config.Config.variant)
    {
      Avantan_core.self = t.site_id;
      n_sites = t.n_sites;
      send = (fun dst msg -> t.send ~entity:ch.label ~dst msg);
      set_timer = t.set_timer;
      local_state = (fun ~scope -> local_state t ch ~scope);
      refresh_wanted = (fun ~scope -> refresh_wanted t ~scope);
      my_scope = (fun () -> freeze t ch);
      on_outcome = (fun outcome -> on_outcome t ch outcome);
      on_event = (fun event -> t.on_event ch.label event);
      persist = (fun () -> Option.iter t.persist ch.owner);
      election_timeout_ms = t.config.Config.election_timeout_ms;
      accept_timeout_ms = t.config.Config.accept_timeout_ms;
      cohort_timeout_ms = t.config.Config.cohort_timeout_ms;
      status_retry_ms = t.config.Config.status_retry_ms;
    }

let create ~config ~engine ~site_id ~n_sites ~entities ~send ~set_timer
    ~refresh_wanted ~register_outcome ~on_event ?(persist = fun _ -> ())
    ?(obs = Obs.Sink.port ()) () =
  let t =
    {
      config;
      engine;
      site_id;
      n_sites;
      entities;
      send;
      set_timer;
      refresh_wanted;
      register_outcome;
      on_event;
      persist;
      obs;
      drain = (fun _ -> ());
      heat = (fun _ -> invalid_arg "Protocol_driver: heat not wired");
      batch = None;
      pending = Queue.create ();
      pending_set = Hashtbl.create 64;
    }
  in
  if config.Config.protocol_batch > 1 then
    t.batch <-
      Some (open_channel t { label = batch_channel; owner = None; exposed = [] });
  t

(* Bind a per-entity channel to a hot entity; a no-op in batched mode,
   where the batch channel serves every entity. With [restore] the fresh
   machine is rebuilt from a durable image and resumes any surviving
   acceptance (crash-amnesia recovery). *)
let attach t ?restore (ctx : Entity_state.t) =
  if Option.is_none t.batch then begin
    let av =
      open_channel t
        { label = Entity_state.entity ctx; owner = Some ctx; exposed = [] }
    in
    ctx.av <- Some av;
    Option.iter (Avantan_core.restore av) restore
  end

let trigger t (ctx : Entity_state.t) =
  match t.batch with
  | Some _ ->
      let entity = Entity_state.entity ctx in
      if
        (not ctx.core.Entity_map.exposed)
        && not (Hashtbl.mem t.pending_set entity)
      then begin
        Hashtbl.replace t.pending_set entity ();
        Queue.push entity t.pending
      end;
      kick t
  | None -> Option.iter Avantan_core.start ctx.av

let handle t ~channel ~src msg =
  if String.equal channel batch_channel then
    Option.iter (fun av -> Avantan_core.handle av ~src msg) t.batch
  else
    match Entity_map.peek t.entities channel with
    | Some { Entity_map.hot = Some { Entity_state.av = Some av; _ }; _ } ->
        Avantan_core.handle av ~src msg
    | Some _ | None -> ()

(* The retained decisions that involve [peer]: those are the instances
   that may have moved its tokens while it was down. *)
let recovery_decisions _t (ctx : Entity_state.t) ~peer =
  Entity_state.decisions_for ctx ~peer

(* Apply missed decisions in instance order; the origin-keyed dedupe
   makes overlapping peer replies harmless. *)
let apply_recovery t (ctx : Entity_state.t) decisions =
  let ordered =
    List.sort
      (fun (a : Protocol.value) (b : Protocol.value) ->
        Consensus.Ballot.compare a.Protocol.origin b.Protocol.origin)
      decisions
  in
  List.iter (fun value -> ignore (apply_value t ctx value)) ordered;
  if ordered <> [] then t.persist ctx

let stats t =
  let acc =
    ref
      (match t.batch with
      | Some av -> Avantan_core.stats av
      | None -> Avantan_core.zero_stats)
  in
  Entity_map.iter_hot
    (fun _ (ctx : Entity_state.t) ->
      Option.iter
        (fun av -> acc := Avantan_core.add_stats !acc (Avantan_core.stats av))
        ctx.av)
    t.entities;
  !acc
