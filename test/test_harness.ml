(* Tests for the experiment harness: system adapters, the workload driver
   (open and closed loop), the lab pipeline and the registry. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entity = Harness.Exp_common.entity

let small_ctx () =
  Harness.Lab.create ~params:{ Trace.Azure_trace.default_params with days = 5 } ()

let regions () = Harness.Exp_common.client_regions ()

let samya_system ?(maximum = 5_000) () =
  Harness.Systems.samya ~seed:3L ~config:Samya.Config.default ~regions:(regions ())
    ~entity ~maximum ()

let driver_counts_commits () =
  let ctx = small_ctx () in
  let duration_ms = 120_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms ~seed:4L ()
  in
  let t_system = samya_system () in
  let result =
    Harness.Driver.run ~t_system
      (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests ~duration_ms)
  in
  check bool "commits happen" true (result.Harness.Driver.committed > 1_000);
  check bool "latencies recorded" true
    (Stats.Sample_set.count result.Harness.Driver.latencies
    = result.Harness.Driver.committed);
  check bool "invariant" true (t_system.Harness.Systems.invariant ~maximum:5_000 = Ok ())

let driver_client_crash_stops_stream () =
  let ctx = small_ctx () in
  let duration_ms = 120_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms ~seed:4L ()
  in
  let run crash =
    let t_system = samya_system () in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests ~duration_ms) with
        Harness.Driver.client_crash = crash;
      }
    in
    (Harness.Driver.run ~t_system spec).Harness.Driver.committed
  in
  let baseline = run [] in
  let reduced = run [ (0.0, 0); (0.0, 1) ] in
  check bool "crashed clients send nothing" true
    (float_of_int reduced < 0.75 *. float_of_int baseline)

let driver_never_releases_unacquired () =
  (* With a tiny maximum, most acquires are rejected; client-side
     accounting must prevent phantom releases from driving total usage
     negative. *)
  let ctx = small_ctx () in
  let duration_ms = 120_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms ~seed:4L ()
  in
  let t_system = samya_system ~maximum:50 () in
  let result =
    Harness.Driver.run ~t_system
      (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests ~duration_ms)
  in
  check bool "rejections happened" true (result.Harness.Driver.rejected > 0);
  check bool "invariant with tiny maximum" true
    (t_system.Harness.Systems.invariant ~maximum:50 = Ok ())

let driver_rejects_non_finite_window () =
  (* Refused before the run: a NaN window used to surface only after it,
     as a "window width mismatch" in the per-client merge. *)
  let submitted = ref 0 in
  let t_system = samya_system () in
  let t_system =
    {
      t_system with
      Harness.Systems.acquire =
        (fun ~region ~amount ~reply ->
          incr submitted;
          t_system.Harness.Systems.acquire ~region ~amount ~reply);
    }
  in
  let requests =
    [|
      {
        Trace.Workload.time_ms = 1.0;
        site = 0;
        kind = Trace.Workload.Acquire;
        amount = 1;
        entity = "";
      };
    |]
  in
  List.iter
    (fun window_ms ->
      let spec =
        {
          (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
             ~duration_ms:1_000.0)
          with
          Harness.Driver.window_ms;
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "window_ms %g" window_ms)
        (Invalid_argument
           (Printf.sprintf "Driver.run: window_ms must be positive and finite (got %g)"
              window_ms))
        (fun () -> ignore (Harness.Driver.run ~t_system spec)))
    [ Float.nan; infinity; 0.0; -1.0 ];
  check int "nothing submitted" 0 !submitted

let gateway_key_names () =
  (* The fleet's namer writes its digits directly; it must name every key
     exactly as the format it replaced, fallback range included. *)
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun r ->
      check Alcotest.string (string_of_int r) (Printf.sprintf "key%07d" r)
        (Harness.Exp_gateway.key_name r))
    ([ 0; 9; 10; 9_999_999; 10_000_000; 123_456_789; -1 ]
    @ List.init 1_000 (fun _ -> Random.State.int rng 10_000_000))

let driver_closed_loop_runs () =
  let ctx = small_ctx () in
  let requests =
    Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms:600_000.0 ~seed:4L ()
  in
  let t_system = samya_system () in
  let result =
    Harness.Driver.run_closed ~t_system ~client_regions:(regions ()) ~requests
      ~duration_ms:30_000.0 ~workers_per_client:4 ~window_ms:10_000.0
  in
  (* 20 workers at ~2ms/request: tens of thousands of requests. *)
  check bool "closed loop is latency-bound" true (result.Harness.Driver.committed > 10_000)

let lab_workload_deterministic () =
  let ctx = small_ctx () in
  let a = Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms:60_000.0 ~seed:9L () in
  let b = Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms:60_000.0 ~seed:9L () in
  check bool "same seed, same stream" true (a = b);
  let c = Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms:60_000.0 ~seed:10L () in
  check bool "different seed differs" true (a <> c)

let lab_read_ratio_applies () =
  let ctx = small_ctx () in
  let stream =
    Harness.Lab.workload ctx ~client_regions:(regions ()) ~duration_ms:300_000.0
      ~read_ratio:0.5 ~seed:9L ()
  in
  let reads = Trace.Workload.count_kind stream Trace.Workload.Read in
  let ratio = float_of_int reads /. float_of_int (Array.length stream) in
  check bool "half reads" true (Float.abs (ratio -. 0.5) < 0.05)

let registry_ids_unique_and_complete () =
  let ids = Harness.Registry.ids () in
  check int "sixteen experiments" 16 (List.length ids);
  check int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Harness.Registry.find id with
      | Some e -> check Alcotest.string "self id" id e.Harness.Registry.id
      | None -> Alcotest.failf "missing %s" id)
    ids;
  match Harness.Registry.run_by_id (small_ctx ()) ~quick:true Format.str_formatter "nope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown id accepted"

let registry_runs_fig3a () =
  let buffer = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buffer in
  (match Harness.Registry.run_by_id (small_ctx ()) ~quick:true fmt "fig3a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Format.pp_print_flush fmt ();
  check bool "printed a table" true
    (String.length (Buffer.contents buffer) > 200)

let systems_have_distinct_names () =
  let names =
    [
      (samya_system ()).Harness.Systems.name;
      (Harness.Systems.demarcation ~seed:3L ~entity ~maximum:100 ()).Harness.Systems.name;
      (Harness.Systems.multipaxsys ~seed:3L ~entity ~maximum:100 ()).Harness.Systems.name;
    ]
  in
  check int "unique" 3 (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Pool and the parallel runner *)

let with_jobs jobs f =
  Harness.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Harness.Pool.set_jobs 1) f

let pool_map_preserves_order () =
  with_jobs 4 (fun () ->
      let expected = List.init 100 (fun i -> i * i) in
      check (Alcotest.list int) "ordered results" expected
        (Harness.Pool.map (fun i -> i * i) (List.init 100 Fun.id)))

let pool_nested_map_runs_inline () =
  with_jobs 3 (fun () ->
      let out =
        Harness.Pool.map
          (fun i -> Harness.Pool.map (fun j -> (i * 10) + j) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      check
        (Alcotest.list (Alcotest.list int))
        "nested fan-out"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
        out)

let pool_map_reraises () =
  with_jobs 2 (fun () ->
      match Harness.Pool.map (fun i -> if i = 3 then failwith "boom" else i) [ 1; 2; 3; 4 ] with
      | _ -> Alcotest.fail "expected the worker exception to resurface"
      | exception Failure message -> check Alcotest.string "exception message" "boom" message)

let registry_parallel_run_deterministic () =
  (* The paper-headline experiment, quick, on a small trace: a parallel
     registry run must render byte-identically to --jobs 1. *)
  let ctx = small_ctx () in
  let experiment =
    match Harness.Registry.find "table2b" with
    | Some e -> e
    | None -> Alcotest.fail "table2b not registered"
  in
  let render jobs =
    with_jobs jobs (fun () ->
        match Harness.Registry.run_many ctx ~quick:true [ experiment ] with
        | [ r ] -> r.Harness.Registry.output
        | _ -> Alcotest.fail "expected exactly one rendered experiment")
  in
  let sequential = render 1 in
  let parallel = render 4 in
  check bool "produced output" true (String.length sequential > 200);
  check Alcotest.string "parallel run byte-identical to --jobs 1" sequential parallel

let with_engine_jobs engine_jobs f =
  Harness.Pool.set_engine_jobs engine_jobs;
  Fun.protect ~finally:(fun () -> Harness.Pool.set_engine_jobs 1) f

let registry_engine_jobs_sweep_deterministic () =
  (* The region-sharded simulation contract: the same experiment renders
     byte-identically at --engine-jobs 1, 2 and 4 — the worker-domain
     count moves wall time only, never results. *)
  let ctx = small_ctx () in
  let experiment =
    match Harness.Registry.find "table2b" with
    | Some e -> e
    | None -> Alcotest.fail "table2b not registered"
  in
  let render engine_jobs =
    with_engine_jobs engine_jobs (fun () ->
        match Harness.Registry.run_many ctx ~quick:true [ experiment ] with
        | [ r ] -> r.Harness.Registry.output
        | _ -> Alcotest.fail "expected exactly one rendered experiment")
  in
  let one = render 1 in
  check bool "produced output" true (String.length one > 200);
  check Alcotest.string "engine-jobs 2 byte-identical" one (render 2);
  check Alcotest.string "engine-jobs 4 byte-identical" one (render 4)

let gateway_engine_jobs_identical () =
  (* The gateway fleet — deferred SLO feed, per-slot entity stats, batched
     site-level instances — must report identically whether the regions
     run on one domain or four. *)
  let fingerprint engine_jobs =
    let plan = Harness.Exp_gateway.plan ~quick:true in
    let c = Harness.Scenario.capture ~engine_jobs plan (Harness.Scenario.arm plan "fleet") in
    let r = c.Harness.Scenario.result in
    Format.asprintf "%d/%d/%d/%d p50=%.3f p95=%.3f slo=%a by=%a"
      r.Harness.Driver.committed r.Harness.Driver.rejected r.Harness.Driver.unavailable r.Harness.Driver.no_reply
      (Harness.Driver.percentile r 50.0) (Harness.Driver.percentile r 95.0)
      (Format.pp_print_list (fun fmt (l : Obs.Slo.report_line) ->
           Format.fprintf fmt "%s:%d/%d" l.Obs.Slo.name l.Obs.Slo.violations
             l.Obs.Slo.windows))
      (Obs.Slo.report c.Harness.Scenario.slo)
      (Format.pp_print_list (fun fmt (key, (e : Harness.Driver.entity_stats)) ->
           Format.fprintf fmt "%s=%d,%d,%.3f" key e.Harness.Driver.e_committed
             e.Harness.Driver.e_rejected e.Harness.Driver.e_latency_sum_ms))
      r.Harness.Driver.by_entity
  in
  let one = fingerprint 1 in
  Alcotest.check bool "produced data" true (String.length one > 100);
  Alcotest.check Alcotest.string "engine-jobs 2 byte-identical" one (fingerprint 2);
  Alcotest.check Alcotest.string "engine-jobs 4 byte-identical" one (fingerprint 4)

let suite =
  [
    Alcotest.test_case "driver: counts commits" `Quick driver_counts_commits;
    Alcotest.test_case "driver: client crash" `Quick driver_client_crash_stops_stream;
    Alcotest.test_case "driver: no phantom releases" `Quick driver_never_releases_unacquired;
    Alcotest.test_case "driver: closed loop" `Quick driver_closed_loop_runs;
    Alcotest.test_case "driver: rejects non-finite window" `Quick
      driver_rejects_non_finite_window;
    Alcotest.test_case "gateway: key names" `Quick gateway_key_names;
    Alcotest.test_case "lab: deterministic workload" `Quick lab_workload_deterministic;
    Alcotest.test_case "lab: read ratio" `Quick lab_read_ratio_applies;
    Alcotest.test_case "registry: ids" `Quick registry_ids_unique_and_complete;
    Alcotest.test_case "registry: runs fig3a" `Quick registry_runs_fig3a;
    Alcotest.test_case "systems: names" `Quick systems_have_distinct_names;
    Alcotest.test_case "pool: ordered map" `Quick pool_map_preserves_order;
    Alcotest.test_case "pool: nested map" `Quick pool_nested_map_runs_inline;
    Alcotest.test_case "pool: exception propagation" `Quick pool_map_reraises;
    Alcotest.test_case "registry: parallel run deterministic" `Slow
      registry_parallel_run_deterministic;
    Alcotest.test_case "registry: engine-jobs sweep deterministic" `Slow
      registry_engine_jobs_sweep_deterministic;
    Alcotest.test_case "gateway: engine-jobs sweep byte-identical" `Slow
      gateway_engine_jobs_identical;
  ]
