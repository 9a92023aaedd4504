(* Re-export the facade record so harness code reads
   [t.Systems.now]; the type lives in [lib/facade] (below chaos) so
   the soak can drive clusters through the same interface. *)
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
  now : unit -> float;
  sched_region : Geonet.Region.t -> Des.Engine.t;
  schedule_global : time_ms:float -> (unit -> unit) -> unit;
  run_until : float -> unit;
  entity : Samya.Types.entity;
  submit :
    region:Geonet.Region.t ->
    Samya.Types.request ->
    reply:(Samya.Types.response -> unit) ->
    unit;
  crash_site : int -> unit;
  recover_site : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
  stats : unit -> stats;
  subscribe : unit -> Obs.Sink.t;
  arm : Obs.Flight_recorder.attachment -> unit;
  invariant : maximum:int -> (unit, string) result;
}

let samya ?seed ?engine_jobs ?name ~config ~regions ?forecaster ?on_protocol_event
    ~entity ~maximum () =
  let hooks = Facade.samya_hooks ?on_protocol_event () in
  (* The CLI's --engine-jobs knob reaches every Samya built by the
     experiment registry through the Pool default; an explicit argument
     (tests) overrides it. *)
  let engine_jobs =
    match engine_jobs with Some n -> n | None -> Pool.engine_jobs ()
  in
  let cluster =
    Samya.Cluster.create ?seed ~engine_jobs ~config ~regions ?forecaster
      ~on_protocol_event:(Facade.protocol_event_hook hooks)
      ~obs:(Facade.obs_port hooks) ()
  in
  Samya.Cluster.init_entity cluster ~entity ~maximum;
  let default_name =
    match config.Samya.Config.variant with
    | Samya.Config.Majority -> "Samya w/ Av.[(n+1)/2]"
    | Samya.Config.Star -> "Samya w/ Av.[*]"
  in
  Facade.of_samya_cluster
    ~name:(Option.value name ~default:default_name)
    ~hooks ~regions ~entity cluster

(* Baseline adapters share one shape: one registered entity on a
   one-lane shard (every client region rides lane 0), stats from the
   internal network counters (a baseline's coordination events are its
   borrows), no protocol feed and nothing to arm. *)
let baseline ?(borrows = fun () -> 0) ~name ~shard ~regions ~entity ~submit ~crash_site
    ~recover_site ~partition ~heal ~net_stats ~set_net_tracer ~obs_port ~invariant () =
  let lane = Des.Shard.engine shard 0 in
  Facade.of_shard shard ~sched_region:(fun _ -> lane) ~name ~regions ~entity ~obs:obs_port
    ~set_net_tracer ~observe:(fun ~context:_ _ -> ())
    ~submit ~crash_site ~recover_site ~partition ~heal
    ~stats:(fun () ->
      let sent, delivered, dropped = net_stats () in
      {
        redistributions = borrows ();
        borrows = borrows ();
        borrow_tokens = 0;
        mechanism_switches = 0;
        messages_sent = sent;
        messages_delivered = delivered;
        messages_dropped = dropped;
      })
    ~arm:(fun (_ : Obs.Flight_recorder.attachment) -> ())
    ~invariant

let demarcation ?seed ?regions ~entity ~maximum () =
  let regions =
    match regions with Some r -> r | None -> Array.of_list Geonet.Region.default_five
  in
  let system = Baselines.Demarcation.create ?seed ~regions () in
  Baselines.Demarcation.init_entity system ~entity ~maximum;
  baseline ~name:"Dem./Escrow"
    ~borrows:(fun () -> Baselines.Demarcation.borrows system)
    ~shard:(Baselines.Demarcation.shard system)
    ~regions ~entity
    ~submit:(Baselines.Demarcation.submit system)
    ~crash_site:(Baselines.Demarcation.crash_site system)
    ~recover_site:(Baselines.Demarcation.recover_site system)
    ~partition:(Baselines.Demarcation.partition system)
    ~heal:(fun () -> Baselines.Demarcation.heal system)
    ~net_stats:(fun () -> Baselines.Demarcation.net_stats system)
    ~set_net_tracer:(Baselines.Demarcation.set_net_tracer system)
    ~obs_port:(Baselines.Demarcation.obs_port system)
    ~invariant:(fun ~maximum ->
      Baselines.Demarcation.check_invariant system ~entity ~maximum)
    ()

(* Both replicated-log baselines share one module, hence one adapter. *)
let replicated ~name system ~entity ~maximum =
  let module R = Baselines.Replicated in
  R.init_entity system ~entity ~maximum;
  baseline ~name ~shard:(R.shard system) ~regions:R.regions ~entity
    ~submit:(R.submit system) ~crash_site:(R.crash_site system)
    ~recover_site:(R.recover_site system) ~partition:(R.partition system)
    ~heal:(fun () -> R.heal system)
    ~net_stats:(fun () -> R.net_stats system)
    ~set_net_tracer:(R.set_net_tracer system) ~obs_port:(R.obs_port system)
    ~invariant:(fun ~maximum -> R.check_invariant system ~entity ~maximum)
    ()

let multipaxsys ?seed ~entity ~maximum () =
  replicated ~name:"MultiPaxSys" (Baselines.Replicated.multipaxsys ?seed ()) ~entity ~maximum

let cockroach ?seed ~entity ~maximum () =
  replicated ~name:"CockroachDB" (Baselines.Replicated.cockroach ?seed ()) ~entity ~maximum
