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
   times: inject at [at_ms], undo at [heal_ms] unless that is infinite (a
   crash that never recovers, a partition that never heals). *)
let fault_events (t_system : Systems.facade) faults =
  List.concat_map
    (fun { Chaos.Nemesis.kind; at_ms; heal_ms } ->
      let inject, undo =
        match kind with
        | Chaos.Nemesis.Partition { groups } ->
            ((fun () -> t_system.partition groups), t_system.heal)
        | Chaos.Nemesis.Crash { site } ->
            ((fun () -> t_system.crash_site site), fun () -> t_system.recover_site site)
        | _ -> invalid_arg "Scenario: only crashes and partitions are injected"
      in
      { Driver.at_ms; action = inject }
      :: (if Float.is_finite heal_ms then [ { Driver.at_ms = heal_ms; action = undo } ]
          else []))
    faults

(* Token conservation (Equation 1) after the drain: a hot entity through
   the facade (every arm), each fleet key on the cluster (Samya arms). *)
let audit plan (t_system : Systems.facade) cluster =
  let failed entity = function Ok () -> [] | Error reason -> [ (entity, reason) ] in
  match (plan.entities, cluster) with
  | Hot { entity; maximum }, _ -> failed entity (t_system.invariant ~maximum)
  | Fleet { count; name; quota }, Some cluster ->
      let rec from i acc =
        if i < 0 then acc
        else
          from (i - 1)
            (failed (name i)
               (Samya.Cluster.check_invariant cluster ~entity:(name i) ~maximum:(quota i))
            @ acc)
      in
      from (count - 1) []
  | Fleet _, None -> []

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
  let violations = audit plan t_system cluster in
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

(* Stop before the window that starts at the horizon: it holds only the
   drain-time commits of requests still in flight at the horizon, not
   measured throughput. *)
let series c =
  Stats.Throughput.series c.result.Driver.throughput
    ~until_ms:(c.result.Driver.duration_ms -. 1.0) ()

let goodput ?(until_ms = infinity) c ~from_ms =
  match List.filter (fun (t, _) -> t >= from_ms && t < until_ms) (series c) with
  | [] -> 0.0
  | wins -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 wins /. float_of_int (List.length wins)

let figure fmt ~title captures =
  Report.series fmt ~title ~unit_label:"txn/s"
    (List.map (fun c -> (c.arm.label, series c)) captures)

let verdict c =
  match c.violations with [] -> "OK" | (_, reason) :: _ -> "VIOLATED: " ^ reason

let conservation fmt captures =
  List.iter
    (fun c -> Format.fprintf fmt "token conservation (%s): %s@." c.arm.label (verdict c))
    captures

let slo_table ?(worst = false) c =
  let value kind v =
    if Float.is_nan v then "-"
    else if kind = "latency" then Report.ms v
    else Printf.sprintf "%.2f%%" (100.0 *. v)
  in
  let columns : (string * (Obs.Slo.report_line -> string)) list =
    [
      ("objective", fun l -> l.Obs.Slo.name);
      ("target", fun l -> value l.Obs.Slo.kind l.Obs.Slo.target);
      ("windows", fun l -> string_of_int l.Obs.Slo.windows);
      ("violations", fun l -> string_of_int l.Obs.Slo.violations);
    ]
    @ (if worst then [ ("worst", fun l -> value l.Obs.Slo.kind l.Obs.Slo.worst) ] else [])
    @ [ ("overall", fun l -> value l.Obs.Slo.kind l.Obs.Slo.overall) ]
  in
  ( List.map fst columns,
    List.map (fun l -> List.map (fun (_, cell) -> cell l) columns) (Obs.Slo.report c.slo) )

(* Columns: a header and a fold over one capture. A table's header and
   its rows come from the same list, so no row can be shorter or longer
   than its header. *)
type column = string * (capture -> string)

let table fmt ~title columns captures =
  Report.table fmt ~title ~header:(List.map fst columns)
    ~rows:(List.map (fun c -> List.map (fun (_, cell) -> cell c) columns) captures)

let label header : column = (header, fun c -> c.arm.label)
let count header f : column = (header, fun c -> string_of_int (f c))
let committed = count "committed" (fun c -> c.result.Driver.committed)
let rejected = count "rejected" (fun c -> c.result.Driver.rejected)
let unavailable = count "unavailable" (fun c -> c.result.Driver.unavailable)
let no_reply = count "no-reply" (fun c -> c.result.Driver.no_reply)
let shed = count "shed" (fun c -> c.result.Driver.shed)
let timed_out = count "timed out" (fun c -> c.result.Driver.timed_out)
let retries = count "retries" (fun c -> c.result.Driver.retries)
let avg_tps : column = ("avg tps", fun c -> Report.f1 (Driver.average_tps c.result))

let percentile q : column =
  (Printf.sprintf "p%.0f" q, fun c -> Report.ms (Driver.percentile c.result q))

let p50 = percentile 50.0
let p95 = percentile 95.0
let p99 = percentile 99.0
let redistributions = count "redistributions" (fun c -> c.stats.Systems.redistributions)
let borrows = count "borrows" (fun c -> c.stats.Systems.borrows)
let switches = count "switches" (fun c -> c.stats.Systems.mechanism_switches)
let messages = count "messages" (fun c -> c.stats.Systems.messages_sent)
let invariant : column = ("invariant", verdict)

let slo : column =
  ("SLO", fun c -> if Obs.Slo.healthy (Obs.Slo.report c.slo) then "healthy" else "VIOLATED")

let recorded = count "recorded" (fun c -> Obs.Flight_recorder.recorded c.flight)
let dropped = count "dropped" (fun c -> Obs.Flight_recorder.dropped c.flight)
let incidents = count "incidents" (fun c -> List.length c.incidents)

let counts ~none = function
  | [] -> none
  | pairs -> String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) pairs)

let by_rule : column =
  ("by rule", fun c -> counts ~none:"-" (Obs.Watchdog.count_by_rule c.incidents))

let slo_lines ?(aborts = false) fmt captures =
  List.iter
    (fun c ->
      Format.fprintf fmt "%s: SLO %s%s@." c.arm.label (snd slo c)
        (if aborts then
           "; aborts by class: " ^ counts ~none:"none" (Obs.Slo.abort_classes c.slo)
         else ""))
    captures

let recorder_line ?(rules = false) fmt c =
  Format.fprintf fmt
    "flight recorder: %s events recorded (%s dropped), watchdog incidents: %s%s@."
    (snd recorded c) (snd dropped c) (snd incidents c)
    (if rules then
       Printf.sprintf " (%s)" (counts ~none:"none" (Obs.Watchdog.count_by_rule c.incidents))
     else "")

let find captures label =
  match List.find_opt (fun c -> c.arm.label = label) captures with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Scenario.find: no capture labelled %S (have: %s)" label
           (String.concat ", " (List.map (fun c -> c.arm.label) captures)))

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

(* The paper's figures: prebuilt systems (their own VM entity at the
   paper's limit), every arm traced, the driver's default 30 s drain. *)
let paper ~duration_ms ~requests ~window_ms ~report builders =
  let arms =
    List.map
      (fun (label, build) ->
        { id = label; label; name = label; system = Built build; spec = Fun.id })
      builders
  in
  {
    duration_ms;
    requests;
    entities = Hot { entity = Exp_common.entity; maximum = Exp_common.maximum };
    faults = [];
    window_ms;
    sketch_k = 8;
    spec = (fun spec -> { spec with Driver.window_ms; drain_ms = 30_000.0 });
    arms;
    traced = List.map (fun (a : arm) -> a.id) arms;
    report;
  }
