let entity = Exp_common.entity
let maximum = Exp_common.maximum
let seed = Exp_common.seed

let regions_for n_sites =
  let base = Exp_common.client_regions () in
  Array.init n_sites (fun i -> base.(i mod Array.length base))

let run ctx ~quick fmt =
  let duration_ms = Exp_common.duration_ms ~quick ~full_min:10.0 ~quick_min:4.0 in
  let workers_per_client = 16 in
  let site_counts = [ 5; 10; 15; 20 ] in
  Format.fprintf fmt
    "@.== Fig 3g: scalability, 5 to 20 sites (closed loop, %d workers/site, %.0f min each) ==@."
    workers_per_client
    (Report.minutes_of_ms duration_ms);
  let forecaster = Lab.runtime_forecaster ctx in
  let measure variant n_sites =
    let regions = regions_for n_sites in
    (* More sites bring more clients (full request intensity each) against
       the same global limit; their net footprints shrink proportionally so
       aggregate usage stays comparable to M_e. *)
    let requests =
      Lab.workload ctx ~client_regions:regions ~duration_ms:(duration_ms *. 4.0)
        ~usage_scale:(5.0 /. float_of_int n_sites)
        ~start_hours:6.0 ~seed ()
    in
    let t_system =
      Systems.samya ~seed
        ~config:(Exp_common.samya_config variant)
        ~regions ~forecaster ~entity ~maximum ()
    in
    let result =
      Driver.run_closed ~t_system ~client_regions:regions ~requests ~duration_ms
        ~workers_per_client ~window_ms:(Exp_common.window_ms ~quick)
    in
    ( Driver.average_tps result,
      Stats.Sample_set.mean result.Driver.latencies,
      (t_system.Systems.stats ()).Systems.redistributions,
      match t_system.Systems.invariant ~maximum with
      | Ok () -> "OK"
      | Error reason -> "VIOLATED: " ^ reason )
  in
  let variants =
    [ ("Avantan[(n+1)/2]", Samya.Config.Majority); ("Avantan[*]", Samya.Config.Star) ]
  in
  (* One flat fan-out over every (variant, sites) cell: under --jobs this
     fills eight slots at once instead of two dependent rounds of four.
     Cells are independent, so the merged map renders byte-identically. *)
  let measured =
    Pool.map
      (fun (name, variant, n) ->
        let tps, latency, redist, invariant = measure variant n in
        (name, n, tps, latency, redist, invariant))
      (List.concat_map
         (fun (name, variant) -> List.map (fun n -> (name, variant, n)) site_counts)
         variants)
  in
  let print_variant name =
    let measured =
      List.filter_map
        (fun (cell_name, n, tps, latency, redist, invariant) ->
          if String.equal cell_name name then Some (n, tps, latency, redist, invariant)
          else None)
        measured
    in
    Report.table fmt ~title:(Printf.sprintf "Fig 3g: %s" name)
      ~header:
        [ "sites"; "avg throughput (txn/s)"; "avg latency"; "redistributions"; "invariant" ]
      ~rows:
        (List.map
           (fun (n, tps, latency, redist, invariant) ->
             [
               string_of_int n;
               Report.f1 tps;
               Report.ms latency;
               string_of_int redist;
               invariant;
             ])
           measured);
    let tps_at n = match List.find (fun (m, _, _, _, _) -> m = n) measured with
      | _, tps, _, _, _ -> tps
    in
    Report.kv fmt
      [
        ( name ^ " throughput 20 vs 5 sites",
          Report.f2 (tps_at 20 /. tps_at 5) ^ "x  (paper: roughly linear, ~4x)" );
      ]
  in
  List.iter (fun (name, _) -> print_variant name) variants
