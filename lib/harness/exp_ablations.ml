let entity = Exp_common.entity
let maximum = Exp_common.maximum
let seed = Exp_common.seed

let totals_table fmt captures =
  Scenario.table fmt ~title:"Totals"
    Scenario.[ label "variant"; committed; rejected; no_reply; redistributions; invariant ]
    captures

let committed captures label = (Scenario.find captures label).result.Driver.committed

let samya_builders ctx variants =
  (* Force the fitted forecaster now, before the builders reach a pool
     worker: training happens once, off the parallel critical path. *)
  let forecaster = Lab.runtime_forecaster ctx in
  List.map
    (fun (label, config) ->
      ( label,
        fun () ->
          Systems.samya ~seed ~name:label ~config
            ~regions:(Exp_common.client_regions ())
            ~forecaster ~entity ~maximum () ))
    variants

(* The ablations quantify what redistribution buys, so the workload must
   press against both the per-site shares and the global limit: start at
   the daily ramp with a raised usage footprint. *)
let ablation_plan ctx ~quick ~full_min ~quick_min ~report variants =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min ~quick_min in
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~usage_scale:2.2 ~start_hours:6.0 ~seed ()
  in
  Scenario.paper ~duration_ms ~requests ~window_ms:(Exp_common.window_ms ~quick) ~report
    (samya_builders ctx variants)

let constraint_plan ctx ~quick =
  let maj = Exp_common.samya_config Samya.Config.Majority in
  let star = Exp_common.samya_config Samya.Config.Star in
  let variants =
    [
      ("No constraints", { maj with Samya.Config.enforce_constraint = false });
      ("Avantan[(n+1)/2]", maj);
      ("Avantan[*]", star);
      (* Without redistribution a shortfall is refused at the local
         ledger: the Static Escrow pin. *)
      ( "No redistribution",
        {
          maj with
          Samya.Config.controller =
            {
              maj.Samya.Config.controller with
              enabled = true;
              policy = Samya.Config.Controller.(Static Escrow);
            };
        } );
    ]
  in
  let report fmt captures =
    Format.fprintf fmt "@.== Fig 3e: no constraint vs no redistribution (§5.5) ==@.";
    Scenario.figure fmt ~title:"Fig 3e: committed throughput" captures;
    totals_table fmt captures;
    let optimal = committed captures "No constraints" in
    let pct label =
      100.0 *. (1.0 -. (float_of_int (committed captures label) /. float_of_int optimal))
    in
    Report.kv fmt
      [
        ("Avantan[(n+1)/2] below optimum", Report.f2 (pct "Avantan[(n+1)/2]") ^ " %  (paper: 3.5-4 %)");
        ("Avantan[*] below optimum", Report.f2 (pct "Avantan[*]") ^ " %  (paper: 3.5-4 %)");
        ("No redistribution below optimum", Report.f2 (pct "No redistribution") ^ " %  (paper: ~14 %)");
      ]
  in
  ablation_plan ctx ~quick ~full_min:25.0 ~quick_min:8.0 ~report variants

let prediction_plan ctx ~quick =
  let maj = Exp_common.samya_config Samya.Config.Majority in
  let star = Exp_common.samya_config Samya.Config.Star in
  let variants =
    [
      ("Avantan[(n+1)/2]", maj);
      ("Avantan[(n+1)/2] no predict", { maj with Samya.Config.prediction_enabled = false });
      ("Avantan[*]", star);
      ("Avantan[*] no predict", { star with Samya.Config.prediction_enabled = false });
    ]
  in
  let report fmt captures =
    Format.fprintf fmt "@.== Fig 3f: proactive vs reactive redistributions (§5.6) ==@.";
    Scenario.figure fmt ~title:"Fig 3f: committed throughput (0.6 s client timeout)" captures;
    totals_table fmt captures;
    let ratio with_p without_p =
      float_of_int (committed captures with_p) /. float_of_int (committed captures without_p)
    in
    let redistributions label =
      (Scenario.find captures label).stats.Systems.redistributions
    in
    let sync_reduction with_p without_p =
      float_of_int (redistributions without_p) /. float_of_int (max 1 (redistributions with_p))
    in
    Report.kv fmt
      [
        ( "Avantan[(n+1)/2] with/without prediction",
          Report.f2 (ratio "Avantan[(n+1)/2]" "Avantan[(n+1)/2] no predict") ^ "x  (paper: ~1.4x)" );
        ( "Avantan[*] with/without prediction",
          Report.f2 (ratio "Avantan[*]" "Avantan[*] no predict") ^ "x  (paper: ~1.4x)" );
        ( "synchronizations avoided by prediction",
          Printf.sprintf "%.0fx fewer (maj), %.0fx fewer (star)"
            (sync_reduction "Avantan[(n+1)/2]" "Avantan[(n+1)/2] no predict")
            (sync_reduction "Avantan[*]" "Avantan[*] no predict") );
      ]
  in
  let plan = ablation_plan ctx ~quick ~full_min:30.0 ~quick_min:8.0 ~report variants in
  { plan with spec = (fun spec -> { (plan.spec spec) with Driver.client_timeout_ms = 600.0 }) }

let constraint_ablation =
  {
    Scenario.id = "fig3e";
    paper_artifact = "Figure 3e";
    description = "no-constraint / no-redistribution ablation";
    plan = constraint_plan;
  }

let prediction_ablation =
  {
    Scenario.id = "fig3f";
    paper_artifact = "Figure 3f";
    description = "proactive vs reactive redistributions (prediction ablation)";
    plan = prediction_plan;
  }
