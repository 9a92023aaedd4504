let entity = Exp_common.entity
let maximum = Exp_common.maximum
let seed = Exp_common.seed

let samya ~forecaster ?name config () =
  Systems.samya ~seed ?name ~config
    ~regions:(Exp_common.client_regions ())
    ~forecaster ~entity ~maximum ()

let totals_table fmt outcomes =
  Report.table fmt ~title:"Totals"
    ~header:[ "variant"; "committed"; "rejected"; "no-reply"; "redistributions"; "invariant" ]
    ~rows:
      (List.map
         (fun (o : Exp_common.outcome) ->
           [
             o.label;
             string_of_int o.result.Driver.committed;
             string_of_int o.result.Driver.rejected;
             string_of_int o.result.Driver.no_reply;
             string_of_int o.redistributions;
             Exp_common.pp_invariant o.invariant;
           ])
         outcomes)

let committed label outcomes =
  let o = List.find (fun (o : Exp_common.outcome) -> o.label = label) outcomes in
  o.result.Driver.committed

let run_group ctx ~quick ~full_min ~quick_min variants =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min ~quick_min in
  (* The ablations quantify what redistribution buys, so the workload must
     press against both the per-site shares and the global limit: start at
     the daily ramp with a raised usage footprint. *)
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~usage_scale:2.2 ~start_hours:6.0 ~seed ()
  in
  let forecaster = Lab.runtime_forecaster ctx in
  let outcomes =
    Pool.map
      (fun (label, config) ->
        Exp_common.run_system ~label ~build:(samya ~forecaster ~name:label config)
          ~requests ~duration_ms ~window_ms:(Exp_common.window_ms ~quick) ())
      variants
  in
  (duration_ms, outcomes)

let run_constraint_ablation ctx ~quick fmt =
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
  Format.fprintf fmt "@.== Fig 3e: no constraint vs no redistribution (§5.5) ==@.";
  let duration_ms, outcomes = run_group ctx ~quick ~full_min:25.0 ~quick_min:8.0 variants in
  let series =
    List.map
      (fun (o : Exp_common.outcome) -> (o.label, Exp_common.throughput_series o ~duration_ms))
      outcomes
  in
  Report.series fmt ~title:"Fig 3e: committed throughput" ~unit_label:"txn/s" series;
  totals_table fmt outcomes;
  let optimal = committed "No constraints" outcomes in
  let pct label =
    100.0 *. (1.0 -. (float_of_int (committed label outcomes) /. float_of_int optimal))
  in
  Report.kv fmt
    [
      ("Avantan[(n+1)/2] below optimum", Report.f2 (pct "Avantan[(n+1)/2]") ^ " %  (paper: 3.5-4 %)");
      ("Avantan[*] below optimum", Report.f2 (pct "Avantan[*]") ^ " %  (paper: 3.5-4 %)");
      ("No redistribution below optimum", Report.f2 (pct "No redistribution") ^ " %  (paper: ~14 %)");
    ]

let run_prediction_ablation ctx ~quick fmt =
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
  Format.fprintf fmt "@.== Fig 3f: proactive vs reactive redistributions (§5.6) ==@.";
  let duration_ms = Exp_common.duration_ms ~quick ~full_min:30.0 ~quick_min:8.0 in
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~usage_scale:2.2 ~start_hours:6.0 ~seed ()
  in
  let forecaster = Lab.runtime_forecaster ctx in
  let outcomes =
    Pool.map
      (fun (label, config) ->
        let t_system = samya ~forecaster ~name:label config () in
        let spec =
          {
            (Driver.default_spec ~client_regions:(Exp_common.client_regions ()) ~requests
               ~duration_ms)
            with
            window_ms = Exp_common.window_ms ~quick;
            client_timeout_ms = 600.0;
          }
        in
        let result = Driver.run ~t_system spec in
        {
          Exp_common.label;
          result;
          redistributions = (t_system.Systems.stats ()).Systems.redistributions;
          invariant = t_system.Systems.invariant ~maximum;
        })
      variants
  in
  let series =
    List.map
      (fun (o : Exp_common.outcome) -> (o.label, Exp_common.throughput_series o ~duration_ms))
      outcomes
  in
  Report.series fmt ~title:"Fig 3f: committed throughput (0.6 s client timeout)"
    ~unit_label:"txn/s" series;
  totals_table fmt outcomes;
  let ratio with_p without_p =
    float_of_int (committed with_p outcomes) /. float_of_int (committed without_p outcomes)
  in
  let redistributions label =
    let o = List.find (fun (o : Exp_common.outcome) -> o.label = label) outcomes in
    o.redistributions
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
