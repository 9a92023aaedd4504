(* Scenarios as data: a scenario module states its stream, arms, faults
   and report; this runner owns the pipeline every scenario shares. *)

type system = Samya of Samya.Config.t | Built of (unit -> Systems.facade)

type arm = {
  id : string;
  label : string;
  name : string;
  system : system;
  spec : Driver.spec -> Driver.spec;
}

type entities =
  | Hot of { entity : string; maximum : int }
  | Fleet of { count : int; name : int -> string; quota : int -> int }

type capture = {
  arm : arm;
  cluster : Samya.Cluster.t option;
  sink : Obs.Sink.t option;
  slo : Obs.Slo.t;
  result : Driver.result;
  stats : Systems.stats;
  flight : Obs.Flight_recorder.t;
  hot : Obs.Heavy_hitters.Windowed.w;
  violations : (string * string) list;
  incidents : Obs.Watchdog.incident list;
}

type plan = {
  duration_ms : float;
  requests : Trace.Workload.request array;
  entities : entities;
  faults : Chaos.Nemesis.fault list;
  window_ms : float;
  sketch_k : int;
  spec : Driver.spec -> Driver.spec;
  arms : arm list;
  traced : string list;
  report : Format.formatter -> capture list -> unit;
}

type t = {
  id : string;
  paper_artifact : string;
  description : string;
  plan : Lab.context -> quick:bool -> plan;
}

let build ?engine_jobs plan arm =
  match arm.system with
  | Built build -> (build (), None)
  | Samya config ->
      let hooks = Facade.samya_hooks () in
      let engine_jobs =
        match engine_jobs with Some n -> n | None -> Pool.engine_jobs ()
      in
      let regions = Exp_common.client_regions () in
      let cluster =
        Samya.Cluster.create ~seed:Exp_common.seed ~engine_jobs ~config ~regions
          ~on_protocol_event:(Facade.protocol_event_hook hooks)
          ~obs:(Facade.obs_port hooks) ()
      in
      let entity =
        match plan.entities with
        | Hot { entity; maximum } ->
            Samya.Cluster.init_entity cluster ~entity ~maximum;
            entity
        | Fleet { count; name; quota } ->
            Samya.Cluster.register_entities cluster
              (List.init count (fun i -> (name i, quota i)));
            name 0
      in
      ( Facade.of_samya_cluster ~name:arm.name ~hooks ~regions ~entity cluster,
        Some cluster )

(* Faults reach the system through its facade, at barrier-aligned virtual
   times: partition at [at_ms], heal at [heal_ms]. *)
let fault_events (t_system : Systems.facade) faults =
  List.concat_map
    (fun { Chaos.Nemesis.kind; at_ms; heal_ms } ->
      match kind with
      | Chaos.Nemesis.Partition { groups } ->
          [
            { Driver.at_ms; action = (fun () -> t_system.partition groups) };
            { Driver.at_ms = heal_ms; action = (fun () -> t_system.heal ()) };
          ]
      | _ -> invalid_arg "Scenario: only partitions are injected")
    faults

(* Token conservation (Equation 1) of every registered entity, after the
   drain. *)
let audit plan cluster =
  let check entity maximum =
    match Samya.Cluster.check_invariant cluster ~entity ~maximum with
    | Ok () -> []
    | Error reason -> [ (entity, reason) ]
  in
  match plan.entities with
  | Hot { entity; maximum } -> check entity maximum
  | Fleet { count; name; quota } ->
      let rec from i acc =
        if i < 0 then acc else from (i - 1) (check (name i) (quota i) @ acc)
      in
      from (count - 1) []

let capture ?engine_jobs ?(observe = false) plan arm =
  let t_system, cluster = build ?engine_jobs plan arm in
  let sink = if observe then Some (t_system.Systems.subscribe ()) else None in
  (* The always-on incident layer: every arm flies with the recorder and
     the request-path hot-key sketch armed. *)
  let flight = Obs.Flight_recorder.create () in
  let hot = Obs.Heavy_hitters.Windowed.create ~k:plan.sketch_k ~window_ms:plan.window_ms () in
  t_system.Systems.arm { Obs.Flight_recorder.recorder = flight; hot = Some hot };
  let slo = Obs.Slo.create ~window_ms:plan.window_ms () in
  let spec =
    arm.spec
      (plan.spec
         {
           (Driver.default_spec ~client_regions:(Exp_common.client_regions ())
              ~requests:plan.requests ~duration_ms:plan.duration_ms)
           with
           drain_ms = 10_000.0;
           events = fault_events t_system plan.faults;
           obs = sink;
           slo = Some slo;
           flight = Some flight;
         })
  in
  let result = Driver.run ~t_system spec in
  (* Auditor failures become recorder events too, so the watchdog's
     invariant rule sees them. *)
  let violations = match cluster with Some c -> audit plan c | None -> [] in
  List.iter
    (fun (entity, reason) ->
      Obs.Flight_recorder.record flight ~lane:(-1) ~ts:(t_system.Systems.now ())
        ~kind:Obs.Flight_recorder.Invariant ~entity reason)
    violations;
  {
    arm;
    cluster;
    sink;
    slo;
    result;
    stats = t_system.Systems.stats ();
    flight;
    hot;
    violations;
    incidents = Obs.Watchdog.detect (Obs.Flight_recorder.events flight);
  }

let figure fmt ~title captures =
  Report.series fmt ~title ~unit_label:"txn/s"
    (List.map
       (fun c ->
         ( c.arm.label,
           (* trim the boundary window, which is empty by construction *)
           Stats.Throughput.series c.result.Driver.throughput
             ~until_ms:(c.result.Driver.duration_ms -. 1.0) () ))
       captures)

let conservation fmt captures =
  List.iter
    (fun c ->
      match c.violations with
      | [] -> Format.fprintf fmt "token conservation (%s): OK@." c.arm.label
      | (_, reason) :: _ ->
          Format.fprintf fmt "token conservation (%s): VIOLATED: %s@." c.arm.label
            reason)
    captures

let arm plan id =
  match List.find_opt (fun (a : arm) -> a.id = id) plan.arms with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Scenario.arm: no arm %S" id)

let run ctx ~quick fmt t =
  let plan = t.plan ctx ~quick in
  plan.report fmt (Pool.map (capture plan) plan.arms)

let trace plan =
  Pool.map
    (capture ~observe:true plan)
    (List.filter (fun (a : arm) -> List.mem a.id plan.traced) plan.arms)
