let entity = Exp_common.entity
let seed = Exp_common.seed

(* Each sweep cell is a paper plan of its own, rendered by the sweep's
   table rather than by a plan report. *)
let no_report _ _ = ()

let run_max_limit ctx ~quick fmt =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min:20.0 ~quick_min:8.0 in
  let limits = [ 600; 1_000; 2_500; 5_000; 16_000 ] in
  let regions = Exp_common.client_regions () in
  let requests =
    Lab.workload ctx ~client_regions:regions ~duration_ms ~start_hours:6.0 ~seed ()
  in
  let forecaster = Lab.runtime_forecaster ctx in
  Format.fprintf fmt "@.== ext1 (§5.9.i): varying the maximum limit M_e ==@.";
  let measure variant maximum =
    let plan =
      Scenario.paper ~duration_ms ~requests ~window_ms:(Exp_common.window_ms ~quick)
        ~report:no_report
        [
          ( "Avantan",
            fun () ->
              Systems.samya ~seed
                ~config:(Exp_common.samya_config variant)
                ~regions ~forecaster ~entity ~maximum () );
        ]
    in
    (* This sweep isolates the effect of M_e on resources that stay
       acquired: releases are grant-driven with a real VM lifetime, so a
       tight limit throttles the token flow instead of being recycled
       through the stream's own schedule. *)
    Scenario.capture
      {
        plan with
        entities = Hot { entity; maximum };
        spec =
          (fun spec -> { (plan.spec spec) with Driver.grant_driven_release_ms = Some 30_000.0 });
      }
      (List.hd plan.arms)
  in
  (* Steady-state throughput: the second half of the window, after the
     standing usage has filled whatever M_e allows. *)
  let tail_tps c = Scenario.goodput c ~from_ms:(duration_ms /. 2.0) in
  let rows =
    Pool.map
      (fun maximum ->
        let maj = measure Samya.Config.Majority maximum in
        let star = measure Samya.Config.Star maximum in
        ( maximum,
          Driver.average_tps maj.Scenario.result,
          tail_tps maj,
          maj.result.Driver.rejected,
          tail_tps star ))
      limits
  in
  Report.table fmt ~title:"ext1: throughput vs maximum limit (Avantan)"
    ~header:
      [ "M_e"; "maj txn/s (whole run)"; "maj txn/s (steady)"; "maj rejected"; "star txn/s (steady)" ]
    ~rows:
      (List.map
         (fun (m, maj_tps, maj_tail, maj_rej, star_tail) ->
           [
             string_of_int m;
             Report.f1 maj_tps;
             Report.f1 maj_tail;
             string_of_int maj_rej;
             Report.f1 star_tail;
           ])
         rows);
  let tail_at m = match List.find (fun (m', _, _, _, _) -> m' = m) rows with
    | _, _, tail, _, _ -> tail
  in
  Report.kv fmt
    [
      ( "steady-state throughput max-limit vs mean-limit",
        Report.f2 (tail_at 16_000 /. Float.max 1.0 (tail_at 600)) ^ "x  (paper: ~5x)" );
    ]

let run_arrival_rate ctx ~quick fmt =
  (* Same number of trace intervals at each rate; only the interval length
     changes, from 5 s (compress 60) back to the original 300 s. *)
  let intervals = if quick then 60 else 120 in
  let compressions = [ (60, "5 s"); (12, "25 s"); (3, "100 s"); (1, "300 s") ] in
  let regions = Exp_common.client_regions () in
  Format.fprintf fmt "@.== ext2 (§5.9.ii): varying the request arrival interval ==@.";
  let builders =
    List.filter
      (fun (label, _) -> label = "Samya w/ Av.[(n+1)/2]" || label = "MultiPaxSys")
      (Exp_headline.builders ctx)
  in
  let measure compress =
    let interval_ms = 300_000.0 /. float_of_int compress in
    let duration_ms = float_of_int intervals *. interval_ms in
    let requests =
      Lab.workload ctx ~client_regions:regions ~duration_ms ~compress ~start_hours:6.0
        ~seed ()
    in
    let plan =
      Scenario.paper ~duration_ms ~requests ~window_ms:(duration_ms /. 20.0)
        ~report:no_report builders
    in
    let captures = List.map (Scenario.capture plan) plan.arms in
    let committed label = (Scenario.find captures label).result.Driver.committed in
    (committed "Samya w/ Av.[(n+1)/2]", committed "MultiPaxSys")
  in
  let rows =
    Pool.map
      (fun (compress, interval_label) ->
        let samya_committed, mp_committed = measure compress in
        [
          interval_label;
          string_of_int samya_committed;
          string_of_int mp_committed;
          Report.f2 (float_of_int samya_committed /. float_of_int (max 1 mp_committed));
        ])
      compressions
  in
  Report.table fmt ~title:"ext2: committed transactions vs arrival interval"
    ~header:[ "interval"; "Avantan[(n+1)/2]"; "MultiPaxSys"; "ratio" ]
    ~rows;
  Report.kv fmt
    [ ("paper", "Avantan commits 43% more even at the original 300 s interval") ]
