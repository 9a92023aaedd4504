let builders ctx : (string * (unit -> Systems.facade)) list =
  let entity = Exp_common.entity and maximum = Exp_common.maximum in
  let seed = Exp_common.seed in
  let regions = Exp_common.client_regions () in
  let forecaster = Lab.runtime_forecaster ctx in
  [
    ( "Samya w/ Av.[(n+1)/2]",
      fun () ->
        Systems.samya ~seed
          ~config:(Exp_common.samya_config Samya.Config.Majority)
          ~regions ~forecaster ~entity ~maximum () );
    ( "Samya w/ Av.[*]",
      fun () ->
        Systems.samya ~seed
          ~config:(Exp_common.samya_config Samya.Config.Star) ~regions
          ~forecaster ~entity ~maximum () );
    ("Dem./Escrow", fun () -> Systems.demarcation ~seed ~regions ~entity ~maximum ());
    ("MultiPaxSys", fun () -> Systems.multipaxsys ~seed ~entity ~maximum ());
    ("CockroachDB", fun () -> Systems.cockroach ~seed ~entity ~maximum ());
  ]

(* Paper Table 2b, for side-by-side printing. *)
let paper_latency =
  [
    ("Samya w/ Av.[(n+1)/2]", (1.40, 10.2, 65.1));
    ("Samya w/ Av.[*]", (2.9, 37.3, 97.3));
    ("Dem./Escrow", (3.5, 59.6, 213.9));
    ("MultiPaxSys", (126.8, 172.7, 276.3));
    ("CockroachDB", (158.7, 184.2, 351.4));
  ]

let report ~requests ~duration_ms fmt captures =
  Format.fprintf fmt "@.== Table 2b + Fig 3b: latency and throughput (%d requests, %.0f min) ==@."
    (Array.length requests)
    (Report.minutes_of_ms duration_ms);
  (* Table 2b. *)
  let paper_cell (c : Scenario.capture) =
    let p90, p95, p99 = List.assoc c.arm.label paper_latency in
    Printf.sprintf "%.1f/%.1f/%.1f" p90 p95 p99
  in
  Scenario.table fmt ~title:"Table 2b: commit latency percentiles"
    Scenario.[ label "system"; percentile 90.0; p95; p99; ("paper p90/95/99 (ms)", paper_cell) ]
    captures;
  Scenario.figure fmt ~title:"Fig 3b: committed throughput over time" captures;
  (* Totals and headline ratios. *)
  let committed label = (Scenario.find captures label).result.Driver.committed in
  let redistributions label =
    (Scenario.find captures label).stats.Systems.redistributions
  in
  let maj = committed "Samya w/ Av.[(n+1)/2]" and star = committed "Samya w/ Av.[*]" in
  let dem = committed "Dem./Escrow" in
  let mp = committed "MultiPaxSys" and crdb = committed "CockroachDB" in
  let ratio a b = if b = 0 then infinity else float_of_int a /. float_of_int b in
  Scenario.table fmt ~title:"Fig 3b: committed transactions (totals)"
    Scenario.[ label "system"; committed; rejected; unavailable; invariant ]
    captures;
  Report.kv fmt
    [
      ("Samya[(n+1)/2] vs MultiPaxSys", Report.f1 (ratio maj mp) ^ "x  (paper: 16-18x)");
      ("Samya[(n+1)/2] vs CockroachDB", Report.f1 (ratio maj crdb) ^ "x  (paper: 16-18x)");
      ("Dem./Escrow vs MultiPaxSys", Report.f1 (ratio dem mp) ^ "x  (paper: ~11x)");
      ("Samya vs Dem./Escrow", Report.f2 (ratio maj dem) ^ "x  (paper: ~1.3x)");
      ("Samya[*] vs Samya[(n+1)/2]", Report.f2 (ratio star maj) ^ "x  (paper: <1)");
      ( "redistributions maj vs star",
        Printf.sprintf "%d vs %d  (paper: 208 vs 792)"
          (redistributions "Samya w/ Av.[(n+1)/2]")
          (redistributions "Samya w/ Av.[*]") );
    ]

let plan ctx ~quick =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min:60.0 ~quick_min:10.0 in
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~seed:Exp_common.seed ()
  in
  Scenario.paper ~duration_ms ~requests ~window_ms:(Exp_common.window_ms ~quick)
    ~report:(report ~requests ~duration_ms) (builders ctx)

let scenario =
  {
    Scenario.id = "table2b";
    paper_artifact = "Table 2b + Figure 3b";
    description = "latency percentiles and throughput of all five systems";
    plan;
  }
