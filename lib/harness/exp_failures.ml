(* The headline's two Samya variants and MultiPaxSys. *)
let failure_systems ctx =
  List.filter
    (fun (label, _) -> label <> "Dem./Escrow" && label <> "CockroachDB")
    (Exp_headline.builders ctx)

let totals fmt ~title captures =
  Scenario.figure fmt ~title captures;
  Scenario.table fmt ~title:"Totals"
    Scenario.[ label "system"; committed; rejected; no_reply; redistributions ]
    captures

(* Both figures start at the daily ramp with a raised usage footprint, so
   regional exhaustion — the thing redistribution exists for — happens
   throughout the window. *)
let failure_plan ctx ~quick ~full_min ~quick_min ~report =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min ~quick_min in
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~usage_scale:2.2 ~start_hours:6.0 ~seed:Exp_common.seed ()
  in
  Scenario.paper ~duration_ms ~requests ~window_ms:(Exp_common.window_ms ~quick)
    ~report:(report duration_ms) (failure_systems ctx)

let crash_plan ctx ~quick =
  let report duration_ms fmt captures =
    let phase = duration_ms /. 5.0 in
    Format.fprintf fmt
      "@.== Fig 3c: throughput under crash failures (one region crashes every %.1f min) ==@."
      (Report.minutes_of_ms phase);
    totals fmt ~title:"Fig 3c: throughput as regions crash" captures;
    (* The headline shape: compare the two variants after majority loss. *)
    let late label =
      List.filter (fun (t, _) -> t >= 3.0 *. phase) (Scenario.series (Scenario.find captures label))
      |> List.map snd |> List.fold_left ( +. ) 0.0
    in
    Report.kv fmt
      [
        ( "after majority loss (last 2 phases)",
          Printf.sprintf "maj=%.0f star=%.0f mp=%.0f (sum of window tps; paper: star > maj, mp = 0)"
            (late "Samya w/ Av.[(n+1)/2]") (late "Samya w/ Av.[*]") (late "MultiPaxSys") );
      ]
  in
  let plan = failure_plan ctx ~quick ~full_min:50.0 ~quick_min:10.0 ~report in
  let phase = plan.duration_ms /. 5.0 in
  (* Crash order: the most distant regions first; the fifth (us-west1 for
     Samya, the leader's region for MultiPaxSys) never crashes. Server
     index 4, 3, 2, 1 in each system's own placement; clients of the
     matching Samya region die with their region. *)
  let crash_steps = [ (phase, 4); (2.0 *. phase, 3); (3.0 *. phase, 2); (4.0 *. phase, 1) ] in
  {
    plan with
    faults =
      List.map
        (fun (at_ms, site) -> { Chaos.Nemesis.kind = Crash { site }; at_ms; heal_ms = infinity })
        crash_steps;
    spec = (fun spec -> { (plan.spec spec) with Driver.client_crash = crash_steps });
  }

let partition_plan ctx ~quick =
  let report duration_ms fmt captures =
    Format.fprintf fmt "@.== Fig 3d: 3-2 network partition at t=%.1f min ==@."
      (Report.minutes_of_ms (duration_ms /. 3.0));
    totals fmt ~title:"Fig 3d: throughput during a 3-2 partition" captures
  in
  let plan = failure_plan ctx ~quick ~full_min:30.0 ~quick_min:9.0 ~report in
  {
    plan with
    faults =
      [
        {
          Chaos.Nemesis.kind = Partition { groups = [ [ 0; 1; 2 ]; [ 3; 4 ] ] };
          at_ms = plan.duration_ms /. 3.0;
          heal_ms = infinity;
        };
      ];
  }

let crash =
  {
    Scenario.id = "fig3c";
    paper_artifact = "Figure 3c";
    description = "throughput as regions crash one by one";
    plan = crash_plan;
  }

let partition =
  {
    Scenario.id = "fig3d";
    paper_artifact = "Figure 3d";
    description = "throughput during a 3-2 network partition";
    plan = partition_plan;
  }
