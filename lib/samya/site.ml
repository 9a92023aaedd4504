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

type stats = {
  served_acquires : int;
  served_releases : int;
  served_reads : int;
  rejected : int;
  queued_peak : int;
  redistributions_led : int;
  redistributions_started : int;
  redistributions_aborted : int;
  proactive_triggers : int;
  reactive_triggers : int;
  borrows : int;
  borrow_tokens : int;
  mechanism_switches : int;
}

(* The site is a thin coordinator: per-entity state lives in the
   {!Entity_map} arena (nothing per cold entity, a core per touched one,
   lazily heated {!Entity_state} records), and the four
   Fig. 2 modules — {!Request_handler}, {!Prediction}, {!Protocol_driver},
   {!Redistribution_policy} — are wired to each other through closures
   built in {!create}. *)
type t = {
  config : Config.t;
  engine : Des.Engine.t;
  network : net_msg Geonet.Network.t;
  site_id : int;
  n_sites : int;
  entities : Entity_state.t Entity_map.t;
  is_alive : bool ref;
  incarnation : int ref;
      (* bumped on each amnesia crash so timers armed by a previous
         incarnation's protocol instances never fire into the recovered
         process (ghost timers would resurrect discarded state) *)
  durable : Durable_image.t Storage.Durable.t option;
      (* Some iff [config.amnesia_on_crash]: one image per entity *)
  rpolicy : Redistribution_policy.t;
  prediction : Prediction.t;
  handler : Request_handler.t;
  driver : Protocol_driver.t;
  controller : Controller.t;
      (* owns the per-entity mechanism choice (a disabled controller pins
         every entity to Redistribute) *)
  heat : Entity_state.t Entity_map.core -> Entity_state.t;
  obs : Obs.Sink.port;
  lane : int;
      (* hosting region's engine lane — the lane flight-recorder events
         and hot-key observations from this site are stamped with *)
  mutable anti_entropy_armed : bool;
      (* the site's one anti-entropy loop, armed by the first registration *)
}

let id t = t.site_id

let alive t = !(t.is_alive)

(* Materialises the entity's core: write paths on the site's own lane
   only. Reads go through [get_ctx] and [read], which never allocate one. *)
let get_core t entity = Entity_map.find t.entities entity

let get_ctx t entity =
  match Entity_map.peek t.entities entity with
  | Some { Entity_map.hot = Some ctx; _ } -> Some ctx
  | Some _ | None -> None

(* A ledger field by name, cold or touched; 0 for an unknown entity. *)
let read t entity field =
  match Entity_map.eid t.entities entity with
  | -1 -> 0
  | eid -> field t.entities eid

(* ------------------------------------------------------------------ *)
(* Network dispatch                                                     *)

let handle_net t ~src msg =
  if !(t.is_alive) then
    match msg with
    | Avantan { entity; msg } ->
        Protocol_driver.handle t.driver ~channel:entity ~src msg
    | Read_query { entity; rid } ->
        let tokens_left = read t entity Entity_map.tokens_left in
        Geonet.Network.send t.network ~src:t.site_id ~dst:src
          (Read_reply { entity; rid; tokens_left })
    | Read_reply { entity = _; rid; tokens_left } ->
        Request_handler.on_read_reply t.handler ~rid ~tokens_left
    | Recovery_query { entity } -> (
        match get_ctx t entity with
        | None -> () (* cold entities hold no decided log to answer from *)
        | Some ctx ->
            let relevant = Protocol_driver.recovery_decisions t.driver ctx ~peer:src in
            if relevant <> [] then
              Geonet.Network.send t.network ~src:t.site_id ~dst:src
                (Recovery_reply { entity; decisions = relevant }))
    | Recovery_reply { entity; decisions } -> (
        if decisions <> [] then
          match get_core t entity with
          | None -> ()
          | Some core -> Protocol_driver.apply_recovery t.driver (t.heat core) decisions)
    | Borrow_request { entity; needed } ->
        (* Lender side: grant from local headroom (shortfall plus a
           quantum, never more than the pool), unless the ledger is
           exposed to an engagement of our own. A zero grant is still
           sent — the borrower needs the answer to walk to its next
           peer. *)
        let tokens =
          match get_core t entity with
          | None -> 0
          | Some core ->
              let lendable =
                match core.Entity_map.hot with
                | Some ctx -> not (Entity_state.parked ctx)
                | None -> not core.Entity_map.exposed
              in
              if not lendable then 0
              else begin
                let g =
                  Mechanism.grant_for
                    ~quantum:
                      t.config.Config.controller.Config.Controller.borrow_quantum
                    ~tokens_left:core.Entity_map.tokens_left ~needed
                in
                core.Entity_map.tokens_left <- core.Entity_map.tokens_left - g;
                g
              end
        in
        Geonet.Network.send t.network ~src:t.site_id ~dst:src
          (Borrow_grant { entity; tokens })
    | Borrow_grant { entity; tokens } -> (
        (* Borrower side: bank the tokens and advance the conversation. A
           grant landing after the conversation died (patience fired, or
           the entity went cold) still lands in the ledger — conservation
           never depends on the conversation being alive. *)
        match get_core t entity with
        | None -> ()
        | Some core -> (
            match core.Entity_map.hot with
            | Some ctx ->
                Mechanism.on_grant (Controller.borrow_deps t.controller) ctx
                  ~tokens
            | None ->
                core.Entity_map.tokens_left <-
                  core.Entity_map.tokens_left + tokens))

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let create ~config ~network ~directory ~id ?forecaster ?on_protocol_event
    ?(obs = Obs.Sink.port ()) ?(lane = 0) () =
  (match Config.validate config with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Site.create: " ^ reason));
  let engine = Geonet.Network.engine_of network ~node:id in
  let n_sites = Geonet.Network.node_count network in
  let is_alive = ref true in
  let incarnation = ref 0 in
  let entities = Entity_map.create ~directory ~site:id ~sites:n_sites () in
  let durable =
    if config.Config.amnesia_on_crash then
      Some (Storage.Durable.create ~policy:config.Config.durability_sync ())
    else None
  in
  let persist (ctx : Entity_state.t) =
    match durable with
    | None -> ()
    | Some store ->
        (* Whole-image writes keep the ledger, the dedupe set and the
           protocol state consistent with each other under any sync
           policy: a crash rolls them back together. *)
        Storage.Durable.put store ~key:(Entity_state.entity ctx)
          (Durable_image.capture ctx)
  in
  let now () = Des.Engine.now engine in
  (* Flight-recorder write, armed path only (the disarmed branch is the
     [Sink.flight] match at each wrapper below). *)
  let flight_record ~kind ~entity detail =
    match Obs.Sink.flight obs with
    | None -> ()
    | Some a ->
        Obs.Flight_recorder.record a.Obs.Flight_recorder.recorder ~lane
          ~ts:(now ()) ~kind ~site:id ~entity detail
  in
  let prediction = Prediction.create ~config ?forecaster () in
  let rpolicy = Redistribution_policy.create ~config in
  (* Forward cell: the controller wraps the driver's trigger, but the
     driver's outcome hook also feeds the controller. Broken by building
     the driver first against this cell. *)
  let note_outcome = ref (fun _ ~aborted:_ -> ()) in
  let driver =
    Protocol_driver.create ~config ~engine ~site_id:id ~n_sites ~entities
      ~send:(fun ~entity ~dst msg ->
        Geonet.Network.send network ~src:id ~dst (Avantan { entity; msg }))
      ~set_timer:(fun ~delay_ms f ->
        let inc = !incarnation in
        Des.Engine.timer ~label:"avantan.timer" engine ~delay_ms (fun () ->
            if !is_alive && !incarnation = inc then f ()))
      ~refresh_wanted:(Prediction.refresh_wanted prediction)
      ~register_outcome:(fun ctx ~aborted ~satisfied ->
        let trips_before = ctx.Entity_state.breaker_trips in
        Redistribution_policy.register_outcome rpolicy ctx ~now:(now ()) ~aborted
          ~satisfied;
        if ctx.Entity_state.breaker_trips > trips_before then
          flight_record ~kind:Obs.Flight_recorder.Breaker
            ~entity:(Entity_state.entity ctx)
            (Printf.sprintf "circuit breaker opened (trip %d)"
               ctx.Entity_state.breaker_trips);
        !note_outcome ctx ~aborted)
      ~on_event:(fun entity event ->
        (match event with
        | Avantan_core.Decided { participants; rounds; led = true; _ } ->
            flight_record ~kind:Obs.Flight_recorder.Protocol ~entity
              (Printf.sprintf "decided (%d participants, %d rounds)"
                 participants rounds)
        | Avantan_core.Instance_aborted { rounds; led = true; _ } ->
            flight_record ~kind:Obs.Flight_recorder.Protocol ~entity
              (Printf.sprintf "instance aborted (%d rounds)" rounds)
        | Avantan_core.Recovery_started _ ->
            flight_record ~kind:Obs.Flight_recorder.Protocol ~entity
              "recovery started"
        | _ -> ());
        match on_protocol_event with
        | Some f -> f ~entity event
        | None -> ())
      ~persist ~obs ()
  in
  let heat (core : Entity_state.t Entity_map.core) =
    match core.Entity_map.hot with
    | Some ctx -> ctx
    | None ->
        let ctx = Entity_state.create ~engine ~config ~core in
        Entity_map.set_hot entities core ctx;
        Protocol_driver.attach driver ctx;
        (* Written through regardless of sync policy: a site must not
           serve an entity before its image (for a registration, its
           starting share) is durable. *)
        (match durable with
        | None -> ()
        | Some store ->
            Storage.Durable.force store ~key:core.Entity_map.name
              (Durable_image.capture ctx));
        ctx
  in
  let controller =
    let ctl_cfg = config.Config.controller in
    (* Peers in proximity order (ties by index), self excluded — the
       demarcation baseline's ask order. *)
    let my_region = Geonet.Network.region_of network id in
    let peers =
      List.init n_sites Fun.id
      |> List.filter (fun a -> a <> id)
      |> List.sort (fun a b ->
             compare
               ( Geonet.Region.one_way_ms my_region
                   (Geonet.Network.region_of network a),
                 a )
               ( Geonet.Region.one_way_ms my_region
                   (Geonet.Network.region_of network b),
                 b ))
    in
    let bdeps =
      Mechanism.borrow_deps ~engine ~site_id:id ~peers
        ~quantum:ctl_cfg.Config.Controller.borrow_quantum
        ~patience_ms:ctl_cfg.Config.Controller.borrow_patience_ms
        ~alive:(fun () -> !is_alive)
        ~send:(fun ~dst ~entity ~needed ->
          Geonet.Network.send network ~src:id ~dst
            (Borrow_request { entity; needed }))
        ~obs ()
    in
    let redistribute =
      Mechanism.redistribute ~now
        ~reactive_ok:(fun ctx ->
          Redistribution_policy.reactive_ok rpolicy ~now:(now ()) ctx)
        ~reactive_wanted:(Prediction.reactive_wanted prediction)
        ~trigger:(Protocol_driver.trigger driver)
    in
    Controller.create ~cfg:ctl_cfg ~engine ~site_id:id ~obs ~lane ~bdeps
      ~redistribute ()
  in
  note_outcome := Controller.note_redistribution_outcome controller;
  let handler =
    Request_handler.create ~config ~engine ~site_id:id ~n_sites ~obs ~lane
      {
        Request_handler.alive = (fun () -> !is_alive);
        proactive =
          (let cooldown_ok = Redistribution_policy.cooldown_ok rpolicy
           and trigger = Protocol_driver.trigger driver in
           fun ctx ->
             Prediction.proactive_check prediction ~now:(now ()) ~cooldown_ok ~trigger ctx);
        broadcast_read_query =
          (fun ~entity ~rid ->
            Geonet.Network.broadcast network ~src:id (Read_query { entity; rid }));
        persist;
        heat;
        controller;
      }
  in
  Protocol_driver.set_drain driver (Request_handler.drain_queue handler);
  (* An unsatisfied borrow drains in reject mode: serve what the grants
     cover, reject the rest — a starved entity must not loop straight
     back into another conversation. *)
  Mechanism.set_borrow_drain (Controller.borrow_deps controller)
    (fun ctx ~satisfied ->
      Request_handler.drain_queue ~reject_unservable:(not satisfied) handler
        ctx);
  Protocol_driver.set_heat driver heat;
  let t =
    {
      config;
      engine;
      network;
      site_id = id;
      n_sites;
      entities;
      is_alive;
      incarnation;
      durable;
      rpolicy;
      prediction;
      handler;
      driver;
      controller;
      heat;
      obs;
      lane;
      anti_entropy_armed = false;
    }
  in
  Geonet.Network.register network ~node:id (fun envelope ->
      handle_net t ~src:envelope.Geonet.Network.src envelope.Geonet.Network.payload);
  t

let anti_entropy_ms = 30_000.0

(* The entities whose tokens can have moved in a redistribution: hot ones,
   plus cores whose InitVal is exposed to a live batched instance. Only
   touched cores can qualify, and {!Entity_map.iter} visits only those. *)
let involved (core : _ Entity_map.core) =
  core.Entity_map.hot <> None || core.Entity_map.exposed

(* Anti-entropy: one site-level loop reconciles missed decisions (a lost
   Decision message or an aborted recovery must not leave this site's
   contribution un-applied forever). Each period it queries peers for the
   (few) entities whose tokens can actually have moved. *)
let ensure_anti_entropy t =
  if not t.anti_entropy_armed then begin
    t.anti_entropy_armed <- true;
    let rec gossip () =
      Des.Engine.schedule t.engine ~delay_ms:anti_entropy_ms (fun () ->
          if !(t.is_alive) then
            Entity_map.iter
              (fun core ->
                if involved core then
                  Geonet.Network.broadcast t.network ~src:t.site_id
                    (Recovery_query { entity = core.Entity_map.name }))
              t.entities;
          gossip ())
    in
    gossip ()
  end

let init_entity t ~eid ~tokens =
  ignore (t.heat (Entity_map.install t.entities eid ~tokens));
  ensure_anti_entropy t

let register_entities t ~first_eid ~count =
  (* Crash-amnesia needs a durable image per entity from the start, so
     that mode registers hot; the freeze model keeps the fleet cold. *)
  if Option.is_some t.durable then
    for eid = first_eid to first_eid + count - 1 do
      ignore (t.heat (Entity_map.by_eid t.entities eid))
    done;
  ensure_anti_entropy t

let arena t = t.entities
let entity_count t = Entity_map.length t.entities

let hot_entities t = Entity_map.hot_count t.entities

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let submit t request ~reply =
  if not !(t.is_alive) then reply ~at_ms:(Des.Engine.now t.engine) Types.Unavailable
  else begin
    (* Request-path heavy-hitters feed: per-lane windowed sketches, so
       the merged top-k is identical at any worker count. Disarmed cost:
       one load and one branch. *)
    (match Obs.Sink.flight t.obs with
    | None -> ()
    | Some { Obs.Flight_recorder.hot = Some hot; _ } ->
        Obs.Heavy_hitters.Windowed.observe hot ~lane:t.lane
          ~now_ms:(Des.Engine.now t.engine)
          (Types.request_entity request)
    | Some _ -> ());
    match Types.validate request with
    | Error _ -> reply ~at_ms:(Des.Engine.now t.engine) Types.Rejected
    | Ok () -> (
        let entity = Types.request_entity request in
        match request with
        | Types.Read _ ->
            let own = read t entity Entity_map.tokens_left in
            Request_handler.serve_read t.handler
              ~deadline_ms:(Types.request_deadline request) ~entity ~own reply
        | Types.Acquire _ | Types.Release _ -> (
            match get_core t entity with
            | None -> reply ~at_ms:(Des.Engine.now t.engine) Types.Rejected
            | Some core -> Request_handler.accept_core t.handler core request reply))
  end

(* ------------------------------------------------------------------ *)
(* Accessors / failure injection                                        *)

let tokens_left t ~entity = read t entity Entity_map.tokens_left
let acquired_net t ~entity = read t entity Entity_map.acquired_net

let queued t ~entity =
  match get_ctx t entity with
  | Some ctx -> Queue.length ctx.Entity_state.queue
  | None -> 0

let queue_peak t ~entity =
  match get_ctx t entity with
  | Some ctx -> ctx.Entity_state.queue_peak
  | None -> 0

let breaker_trips t ~entity =
  match get_ctx t entity with
  | Some ctx -> ctx.Entity_state.breaker_trips
  | None -> 0

let breaker_open t ~entity =
  match get_ctx t entity with
  | Some ctx ->
      Redistribution_policy.breaker_open t.rpolicy
        ~now:(Des.Engine.now t.engine) ctx
  | None -> false

let mechanism t ~entity =
  Option.map (fun ctx -> ctx.Entity_state.ctl_mech) (get_ctx t entity)

let mechanism_switches t = Controller.switches t.controller
let borrows t = Controller.borrows t.controller
let borrow_tokens t = Controller.borrow_tokens t.controller

let pin_policy t ~entity policy =
  if not t.config.Config.controller.Config.Controller.enabled then
    invalid_arg "Site.pin_policy: controller disabled";
  match get_core t entity with
  | None -> invalid_arg "Site.pin_policy: unknown entity"
  | Some core -> Controller.pin t.controller (t.heat core) policy

let shed_deadline t = Request_handler.shed_deadline t.handler
let shed_admission t = Request_handler.shed_admission t.handler
let shed_queue_expired t = Request_handler.shed_queue_expired t.handler
let admission_dropping t = Request_handler.admission_dropping t.handler

let decided_log_length t ~entity =
  match get_ctx t entity with Some ctx -> Entity_state.decided_log_length ctx | None -> 0

let decided_log t ~entity =
  match get_ctx t entity with Some ctx -> Entity_state.decided_log ctx | None -> []

let durable_syncs t =
  match t.durable with Some store -> Storage.Durable.sync_count store | None -> 0

let participating t ~entity =
  match Entity_map.peek t.entities entity with
  | Some { Entity_map.hot = Some ctx; _ } -> Entity_state.participating ctx
  | Some core -> core.Entity_map.exposed
  | None -> false

let crash t =
  t.is_alive := false;
  Geonet.Network.crash t.network t.site_id;
  Entity_map.iter_hot
    (fun _ (ctx : Entity_state.t) -> Queue.clear ctx.Entity_state.queue)
    t.entities;
  Request_handler.on_crash t.handler;
  match t.durable with
  | None -> () (* freeze model: in-memory state survives the crash *)
  | Some store ->
      (* Crash-amnesia: everything volatile dies with the process. The
         in-memory records are rebuilt from the durable images at recovery;
         bumping the incarnation fences off every timer the dead process
         armed, so the discarded protocol instances stay dead. *)
      incr t.incarnation;
      ignore (Storage.Durable.lose_unsynced store)

let recover t =
  t.is_alive := true;
  Geonet.Network.recover t.network t.site_id;
  (match t.durable with
  | None -> ()
  | Some store ->
      Entity_map.iter_hot
        (fun core ctx ->
          match Storage.Durable.load store ~key:core.Entity_map.name with
          | None -> () (* unreachable: the initial image is forced *)
          | Some image ->
              Entity_state.restore ctx ~config:t.config
                ~tokens_left:image.Durable_image.tokens_left
                ~acquired_net:image.Durable_image.acquired_net
                ~applied_origins:image.Durable_image.applied_origins
                ~decided_log:image.Durable_image.decided_log;
              (* Reattaching resumes any acceptance that survived in the
                 image (possibly broadcasting, hence after the network
                 knows we are back up). *)
              Protocol_driver.attach t.driver ?restore:image.Durable_image.protocol
                ctx)
        t.entities);
  (* Catch up on redistributions decided while we were down: peers answer
     with any decision our InitVal took part in. Cold, never-exposed
     entities cannot have contributed, so the fleet stays quiet. *)
  Entity_map.iter
    (fun core ->
      if involved core then
        Geonet.Network.broadcast t.network ~src:t.site_id
          (Recovery_query { entity = core.Entity_map.name }))
    t.entities

let protocol_stats t = Protocol_driver.stats t.driver

let stats t =
  let proto = protocol_stats t in
  {
    served_acquires = Request_handler.served_acquires t.handler;
    served_releases = Request_handler.served_releases t.handler;
    served_reads = Request_handler.served_reads t.handler;
    rejected = Request_handler.rejected t.handler;
    queued_peak = Request_handler.queued_peak t.handler;
    redistributions_led = proto.Avantan_core.led_decided;
    redistributions_started = proto.Avantan_core.led_started;
    redistributions_aborted = proto.Avantan_core.led_aborted;
    proactive_triggers = Prediction.proactive_triggers t.prediction;
    reactive_triggers = Request_handler.reactive_triggers t.handler;
    borrows = borrows t;
    borrow_tokens = borrow_tokens t;
    mechanism_switches = mechanism_switches t;
  }
