(* One site-level batch machine (protocol_batch > 1): a single Avantan
   instance piggybacks up to [protocol_batch] triggered entities' deltas
   in one WAN round. *)
type batch = {
  b_av : Avantan_core.t;
  pending : string Queue.t;
  pending_set : (string, unit) Hashtbl.t;
  exposed_set : (string, unit) Hashtbl.t;
  mutable exposed_order : string list;  (* reverse exposure order *)
}

type t = {
  config : Config.t;
  engine : Des.Engine.t;
  site_id : int;
  n_sites : int;
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
  mutable resolve : Types.entity -> Entity_state.t Entity_map.core option;
      (** entity-map lookup, wired by the site (batched mode) *)
  mutable heat : Entity_state.t Entity_map.core -> Entity_state.t;
      (** hot-state materialisation, wired by the site (batched mode) *)
  mutable batch : batch option;
}

let create ~config ~engine ~site_id ~n_sites ~send ~set_timer ~refresh_wanted
    ~register_outcome ~on_event ?(persist = fun _ -> ())
    ?(obs = Obs.Sink.port ()) () =
  {
    config;
    engine;
    site_id;
    n_sites;
    send;
    set_timer;
    refresh_wanted;
    register_outcome;
    on_event;
    persist;
    obs;
    drain = (fun _ -> ());
    resolve = (fun _ -> None);
    heat = (fun _ -> invalid_arg "Protocol_driver: heat not wired");
    batch = None;
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

let set_resolve t f = t.resolve <- f

let set_heat t f = t.heat <- f

let batched t = t.config.Config.protocol_batch > 1

let now t = Des.Engine.now t.engine

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

(* Apply a decided value against one entity's state: per-entity machines
   carry a single group; a batched value applies its matching group. *)
let apply_value t (ctx : Entity_state.t) (value : Protocol.value) =
  match value.Protocol.groups with
  | [ g ] -> apply_group t ctx ~origin:value.Protocol.origin g
  | groups -> (
      match
        List.find_opt
          (fun (g : Protocol.group) ->
            String.equal g.Protocol.g_entity (Entity_state.entity ctx))
          groups
      with
      | Some g -> apply_group t ctx ~origin:value.Protocol.origin g
      | None -> None)

(* Protocol instance finished: apply the decision, report satisfaction to
   the redistribution policy, and hand the queue back to the request
   handler. *)
let on_outcome t (ctx : Entity_state.t) outcome =
  ctx.last_redistribution_ms <- now t;
  (match outcome with
  | Protocol.Decided value ->
      obs_incr t "samya.protocol.decided";
      (match apply_value t ctx value with
      | Some satisfied -> t.register_outcome ctx ~aborted:false ~satisfied
      | None -> ());
      ctx.core.tokens_wanted <- 0
  | Protocol.Aborted ->
      obs_incr t "samya.protocol.aborted";
      t.register_outcome ctx ~aborted:true ~satisfied:(ctx.core.tokens_wanted = 0);
      ctx.core.tokens_wanted <- 0);
  t.drain ctx

(* Instantiate the configured Avantan variant for one entity: both are
   the shared {!Avantan_core} machine under different quorum policies.
   With [restore] the fresh machine is rebuilt from a durable image and
   resumes any surviving acceptance (crash-amnesia recovery). *)
let attach t ?restore (ctx : Entity_state.t) =
  let env =
    {
      Avantan_core.self = t.site_id;
      n_sites = t.n_sites;
      send = (fun dst msg -> t.send ~entity:(Entity_state.entity ctx) ~dst msg);
      set_timer = t.set_timer;
      local_state =
        (fun ~scope:_ ->
          [
            ( "",
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
                tokens_left = max 0 ctx.core.tokens_left;
                tokens_wanted = ctx.core.tokens_wanted;
              } );
          ]);
      refresh_wanted = (fun ~scope:_ -> t.refresh_wanted ctx);
      my_scope = (fun () -> []);
      on_outcome = (fun outcome -> on_outcome t ctx outcome);
      on_event = (fun event -> t.on_event (Entity_state.entity ctx) event);
      persist = (fun () -> t.persist ctx);
      election_timeout_ms = t.config.Config.election_timeout_ms;
      accept_timeout_ms = t.config.Config.accept_timeout_ms;
      cohort_timeout_ms = t.config.Config.cohort_timeout_ms;
      status_retry_ms = t.config.Config.status_retry_ms;
    }
  in
  let av =
    Avantan_core.create
      ~policy:(Avantan_core.policy_of_variant t.config.Config.variant)
      env
  in
  ctx.av <- Some av;
  match restore with Some image -> Avantan_core.restore av image | None -> ()

(* ------------------------------------------------------------------ *)
(* Batched site-level machine (protocol_batch > 1)                      *)

(* The reserved entity label of the site-level protocol channel: real
   entities are validated non-empty at registration. *)
let batch_channel = ""

let expose t b entity =
  if not (Hashtbl.mem b.exposed_set entity) then begin
    Hashtbl.replace b.exposed_set entity ();
    b.exposed_order <- entity :: b.exposed_order
  end;
  match t.resolve entity with
  | Some core -> core.Entity_map.exposed <- true
  | None -> ()

(* This site's InitVals for every entity in scope — and the moment they
   leave for (or seed) an instance, those entities are exposed and must
   queue client traffic. Cold entities contribute their core ledger
   without heating. *)
let batch_local_state t b ~scope =
  List.filter_map
    (fun entity ->
      match t.resolve entity with
      | None -> None
      | Some core ->
          expose t b entity;
          Some
            ( entity,
              {
                Protocol.site = t.site_id;
                (* Debt stays local — see the per-entity exposure above. *)
                tokens_left = max 0 core.Entity_map.tokens_left;
                tokens_wanted = core.Entity_map.tokens_wanted;
              } ))
    scope

let batch_refresh_wanted t ~scope =
  List.iter
    (fun entity ->
      match t.resolve entity with
      | Some { Entity_map.hot = Some ctx; _ } -> t.refresh_wanted ctx
      | Some _ | None -> ())
    scope

(* Freeze the next instance's scope: drain pending triggers, skipping
   entities already exposed to a live instance. *)
let batch_my_scope t b () =
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match Queue.take_opt b.pending with
      | None -> List.rev acc
      | Some entity ->
          Hashtbl.remove b.pending_set entity;
          let live =
            match t.resolve entity with
            | Some core -> not core.Entity_map.exposed
            | None -> false
          in
          if live then take (entity :: acc) (k - 1) else take acc k
  in
  let scope = take [] t.config.Config.protocol_batch in
  obs_observe t "samya.batch.scope" (float_of_int (List.length scope));
  scope

let dedup_keep_first entities =
  List.fold_left
    (fun acc e -> if List.mem e acc then acc else e :: acc)
    [] entities
  |> List.rev

(* Start another instance if triggered entities are still waiting (the
   machine is idle again once its on_outcome ran). *)
let kick t b =
  let live =
    Queue.fold
      (fun acc e ->
        acc
        || match t.resolve e with Some c -> not c.Entity_map.exposed | None -> false)
      false b.pending
  in
  if live then Avantan_core.start b.b_av

(* A batched instance concluded: apply each decided group as a per-entity
   delta (heating entities the decision involves), release every exposure,
   and drain the released queues in exposure order. *)
let on_batch_outcome t b outcome =
  let exposed = List.rev b.exposed_order in
  b.exposed_order <- [];
  Hashtbl.reset b.exposed_set;
  let now_ms = now t in
  let touched =
    match outcome with
    | Protocol.Decided value ->
        dedup_keep_first
          (exposed @ List.map (fun g -> g.Protocol.g_entity) value.Protocol.groups)
    | Protocol.Aborted -> exposed
  in
  (match outcome with
  | Protocol.Decided value ->
      obs_incr t "samya.protocol.decided";
      obs_observe t "samya.batch.decided_groups"
        (float_of_int (List.length value.Protocol.groups));
      List.iter
        (fun (g : Protocol.group) ->
          match t.resolve g.Protocol.g_entity with
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
          match t.resolve entity with
          | Some ({ Entity_map.hot = Some ctx; _ } as core) ->
              ctx.Entity_state.last_redistribution_ms <- now_ms;
              t.register_outcome ctx ~aborted:true
                ~satisfied:(core.Entity_map.tokens_wanted = 0);
              core.Entity_map.tokens_wanted <- 0
          | Some core -> core.Entity_map.tokens_wanted <- 0
          | None -> ())
        exposed);
  List.iter
    (fun entity ->
      match t.resolve entity with
      | Some core -> core.Entity_map.exposed <- false
      | None -> ())
    touched;
  List.iter
    (fun entity ->
      match t.resolve entity with
      | Some { Entity_map.hot = Some ctx; _ } -> t.drain ctx
      | Some _ | None -> ())
    touched;
  kick t b

let make_batch t =
  let rec b =
    lazy
      (let env =
         {
           Avantan_core.self = t.site_id;
           n_sites = t.n_sites;
           send = (fun dst msg -> t.send ~entity:batch_channel ~dst msg);
           set_timer = t.set_timer;
           local_state = (fun ~scope -> batch_local_state t (Lazy.force b) ~scope);
           refresh_wanted = (fun ~scope -> batch_refresh_wanted t ~scope);
           my_scope = (fun () -> batch_my_scope t (Lazy.force b) ());
           on_outcome = (fun outcome -> on_batch_outcome t (Lazy.force b) outcome);
           on_event = (fun event -> t.on_event batch_channel event);
           persist = (fun () -> ());
           election_timeout_ms = t.config.Config.election_timeout_ms;
           accept_timeout_ms = t.config.Config.accept_timeout_ms;
           cohort_timeout_ms = t.config.Config.cohort_timeout_ms;
           status_retry_ms = t.config.Config.status_retry_ms;
         }
       in
       {
         b_av =
           Avantan_core.create
             ~policy:(Avantan_core.policy_of_variant t.config.Config.variant)
             env;
         pending = Queue.create ();
         pending_set = Hashtbl.create 64;
         exposed_set = Hashtbl.create 64;
         exposed_order = [];
       })
  in
  Lazy.force b

let get_batch t =
  match t.batch with
  | Some b -> b
  | None ->
      let b = make_batch t in
      t.batch <- Some b;
      b

let trigger t (ctx : Entity_state.t) =
  if batched t then begin
    let b = get_batch t in
    let entity = Entity_state.entity ctx in
    if
      (not ctx.core.Entity_map.exposed)
      && not (Hashtbl.mem b.pending_set entity)
    then begin
      Hashtbl.replace b.pending_set entity ();
      Queue.push entity b.pending
    end;
    kick t b
  end
  else match ctx.av with Some av -> Avantan_core.start av | None -> ()

let handle _t (ctx : Entity_state.t) ~src msg =
  match ctx.av with Some av -> Avantan_core.handle av ~src msg | None -> ()

let handle_batch t ~src msg =
  if batched t then Avantan_core.handle (get_batch t).b_av ~src msg

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

let protocol_stats _t (ctx : Entity_state.t) =
  match ctx.av with
  | Some av -> Avantan_core.stats av
  | None -> Avantan_core.zero_stats

let batch_stats t =
  match t.batch with
  | Some b -> Avantan_core.stats b.b_av
  | None -> Avantan_core.zero_stats
