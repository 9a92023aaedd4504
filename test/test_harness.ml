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
      Harness.Systems.submit =
        (fun ~region request ~reply ->
          incr submitted;
          t_system.Harness.Systems.submit ~region request ~reply);
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
      (Harness.Driver.by_entity r)
  in
  let one = fingerprint 1 in
  Alcotest.check bool "produced data" true (String.length one > 100);
  Alcotest.check Alcotest.string "engine-jobs 2 byte-identical" one (fingerprint 2);
  Alcotest.check Alcotest.string "engine-jobs 4 byte-identical" one (fingerprint 4)

(* [Driver.by_entity] is a fold over the clients' reply logs. A small
   hand-built stream over three keys, every fourth request unnamed (it
   targets the facade's own key), with grant-driven releases, a retry
   policy with a finite client timeout, deadlines that shed, site 1
   crashed for 2 s and the other sites for 0.3 s of it (unavailable
   replies). A fourth key is requested once, by site 1's client while
   its site is down, and only times out. Naming the facade's key
   outright leaves the run unchanged and only adds that key to the list,
   so the fold must agree with the run's totals and never list an
   unnamed request. *)
let driver_by_entity_fold () =
  let own = "own" and keys = [| "k0"; "k1"; "k2" |] in
  let run ~engine_jobs ~name_own =
    let regions = regions () in
    let cluster =
      Samya.Cluster.create ~seed:5L ~engine_jobs ~config:Samya.Config.default ~regions ()
    in
    List.iter
      (fun (entity, maximum) -> Samya.Cluster.init_entity cluster ~entity ~maximum)
      [ (own, 40); ("k0", 40); ("k1", 10); ("k2", 5); ("k3", 5) ];
    let t_system =
      Facade.of_samya_cluster ~hooks:(Facade.samya_hooks ()) ~regions ~entity:own cluster
    in
    let requests =
      Array.init 900 (fun i ->
          {
            Trace.Workload.time_ms = 5.0 *. float_of_int i;
            site = i mod 5;
            kind = (if i mod 10 = 9 then Trace.Workload.Read else Trace.Workload.Acquire);
            amount = 1;
            entity =
              (if i = 401 then "k3"
               else if i mod 4 = 3 then if name_own then own else ""
               else keys.(i mod 3));
          })
    in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:regions ~requests ~duration_ms:5_000.0)
        with
        Harness.Driver.events =
          List.concat_map
            (fun (at_ms, sites, f) ->
              List.map (fun site -> { Harness.Driver.at_ms; action = (fun () -> f site) }) sites)
            [
              (1_500.0, [ 1 ], t_system.crash_site);
              (2_500.0, [ 0; 2; 3; 4 ], t_system.crash_site);
              (2_800.0, [ 0; 2; 3; 4 ], t_system.recover_site);
              (3_500.0, [ 1 ], t_system.recover_site);
            ];
        client_timeout_ms = 40.0;
        grant_driven_release_ms = Some 400.0;
        track_entities = true;
        retry =
          Some
            {
              Harness.Driver.max_attempts = 2;
              base_backoff_ms = 5.0;
              max_backoff_ms = 20.0;
              jitter = 0.5;
              jitter_seed = 9L;
            };
        deadline_budget_ms = 60.0;
      }
    in
    Harness.Driver.run ~t_system spec
  in
  let a = run ~engine_jobs:1 ~name_own:false in
  let named = run ~engine_jobs:1 ~name_own:true in
  let totals (r : Harness.Driver.result) =
    Harness.Driver.[ r.committed; r.rejected; r.unavailable; r.shed; r.timed_out; r.retries ]
  in
  check bool "every outcome occurs" true (List.for_all (fun n -> n > 0) (totals a));
  check Alcotest.(list int) "naming the facade's key changes no outcome" (totals a)
    (totals named);
  let render list =
    String.concat "; "
      (List.map
         (fun (key, (e : Harness.Driver.entity_stats)) ->
           Printf.sprintf "%s %d/%d/%d/%d %h %h" key e.e_committed e.e_rejected
             e.e_unavailable e.e_shed e.e_latency_sum_ms e.e_latency_max_ms)
         list)
  in
  let all = Harness.Driver.by_entity named and by_entity = Harness.Driver.by_entity a in
  let sum f = List.fold_left (fun acc (_, e) -> acc + f e) 0 all in
  check Alcotest.(list int) "counts sum to the totals"
    Harness.Driver.[ named.committed; named.rejected; named.unavailable; named.shed ]
    Harness.Driver.
      [
        sum (fun e -> e.e_committed);
        sum (fun e -> e.e_rejected);
        sum (fun e -> e.e_unavailable);
        sum (fun e -> e.e_shed);
      ];
  let lats = named.Harness.Driver.latencies in
  check (Alcotest.float 1e-6) "latency sums add up"
    (Stats.Sample_set.mean lats *. float_of_int (Stats.Sample_set.count lats))
    (List.fold_left (fun acc (_, e) -> acc +. e.Harness.Driver.e_latency_sum_ms) 0.0 all);
  check (Alcotest.float 0.0) "latency max" (Stats.Sample_set.max_value lats)
    (List.fold_left (fun acc (_, e) -> Float.max acc e.Harness.Driver.e_latency_max_ms) 0.0 all);
  check Alcotest.string "unnamed requests are not listed"
    (render (List.remove_assoc own all))
    (render by_entity);
  let names = List.map fst by_entity in
  check Alcotest.(list string) "sorted by name" [ "k0"; "k1"; "k2"; "k3" ] names;
  check Alcotest.string "a timeout-only key is listed with zero counts" "k3 0/0/0/0 0x0p+0 0x0p+0"
    (render [ List.nth by_entity 3 ]);
  check Alcotest.string "engine-jobs 2 identical" (render by_entity)
    (render (Harness.Driver.by_entity (run ~engine_jobs:2 ~name_own:false)))

(* [by_phase] reads each commit's phase from a tag byte beside its one
   latency sample. A stream of acquires and reads over 6 s with four
   phase boundaries, a retry policy with a finite client timeout,
   grant-driven releases, site 1 crashed for 1.5 s (timeouts and
   retries) and client 3 crashed at 4.2 s. The phases must account for
   every counted outcome, hold between them exactly the run's latency
   samples, and come out the same at one and two engine workers. *)
let driver_by_phase_split () =
  let run ~engine_jobs =
    let regions = regions () in
    let cluster =
      Samya.Cluster.create ~seed:11L ~engine_jobs ~config:Samya.Config.default ~regions ()
    in
    Samya.Cluster.init_entity cluster ~entity:"VM" ~maximum:30;
    let t_system =
      Facade.of_samya_cluster ~hooks:(Facade.samya_hooks ()) ~regions ~entity:"VM" cluster
    in
    let requests =
      Array.init 1_200 (fun i ->
          {
            Trace.Workload.time_ms = 5.0 *. float_of_int i;
            site = i mod 5;
            kind = (if i mod 7 = 6 then Trace.Workload.Read else Trace.Workload.Acquire);
            amount = 1;
            entity = "";
          })
    in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:regions ~requests ~duration_ms:6_000.0)
        with
        Harness.Driver.events =
          [
            { Harness.Driver.at_ms = 2_000.0; action = (fun () -> t_system.crash_site 1) };
            { Harness.Driver.at_ms = 3_500.0; action = (fun () -> t_system.recover_site 1) };
          ];
        client_crash = [ (4_200.0, 3) ];
        client_timeout_ms = 40.0;
        grant_driven_release_ms = Some 300.0;
        retry =
          Some
            {
              Harness.Driver.max_attempts = 2;
              base_backoff_ms = 5.0;
              max_backoff_ms = 20.0;
              jitter = 0.5;
              jitter_seed = 3L;
            };
        phases = [| 1_000.0; 2_500.0; 3_000.0; 4_500.0 |];
      }
    in
    Harness.Driver.run ~t_system spec
  in
  let bits_sorted s = Array.map Int64.bits_of_float (Stats.Sample_set.to_sorted_array s) in
  let render (r : Harness.Driver.result) =
    String.concat "; "
      (Printf.sprintf "%d/%d/%d/%d/%d/%d" r.committed r.rejected r.unavailable r.shed
         r.timed_out r.retries
      :: Array.to_list
           (Array.map
              (fun (p : Harness.Driver.phase_stats) ->
                Printf.sprintf "%d/%d %h %h" p.p_committed p.p_aborted
                  (Stats.Sample_set.mean p.p_latencies)
                  (Stats.Sample_set.percentile p.p_latencies 99.0))
              r.by_phase))
  in
  let r = run ~engine_jobs:1 in
  let phases = Array.to_list r.Harness.Driver.by_phase in
  let sum f = List.fold_left (fun n p -> n + f p) 0 phases in
  check int "five phases" 5 (List.length phases);
  check bool "timeouts and retries occur" true
    (r.Harness.Driver.timed_out > 0 && r.Harness.Driver.retries > 0);
  check bool "every phase commits" true
    (List.for_all (fun p -> p.Harness.Driver.p_committed > 0) phases);
  check int "phase commits sum to the total" r.Harness.Driver.committed
    (sum (fun p -> p.Harness.Driver.p_committed));
  check int "phase aborts sum to the total aborts"
    Harness.Driver.(r.rejected + r.unavailable + r.shed + r.timed_out)
    (sum (fun p -> p.Harness.Driver.p_aborted));
  List.iter
    (fun p ->
      check int "a phase's commits are its samples" p.Harness.Driver.p_committed
        (Stats.Sample_set.count p.Harness.Driver.p_latencies))
    phases;
  let together =
    Array.concat (List.map (fun p -> bits_sorted p.Harness.Driver.p_latencies) phases)
  in
  Array.sort compare together;
  let all = bits_sorted r.Harness.Driver.latencies in
  Array.sort compare all;
  check Alcotest.(array int64) "the phases' samples are the run's samples" all together;
  check Alcotest.string "engine-jobs 2 identical" (render r) (render (run ~engine_jobs:2))

let driver_rejects_too_many_phases () =
  let regions = regions () in
  let cluster =
    Samya.Cluster.create ~seed:1L ~config:Samya.Config.default ~regions ()
  in
  Samya.Cluster.init_entity cluster ~entity:"VM" ~maximum:10;
  let t_system =
    Facade.of_samya_cluster ~hooks:(Facade.samya_hooks ()) ~regions ~entity:"VM" cluster
  in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:regions ~requests:[||]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.phases = Array.init 256 (fun i -> float_of_int (i + 1));
    }
  in
  Alcotest.check_raises "256 boundaries"
    (Invalid_argument "Driver.run: at most 255 phase boundaries (got 256)") (fun () ->
      ignore (Harness.Driver.run ~t_system spec))

(* A one-arm plan over a few acquires, built by hand: the runner's
   behaviour, not a figure's, is under test. *)
let one_arm_plan ?(faults = []) build : Harness.Scenario.plan =
  let requests =
    Array.init 20 (fun i ->
        {
          Trace.Workload.time_ms = 100.0 *. float_of_int (i + 1);
          site = i mod 5;
          kind = Trace.Workload.Acquire;
          amount = 1;
          entity = "";
        })
  in
  let arm =
    { Harness.Scenario.id = "arm"; label = "arm"; name = "arm"; system = Built build; spec = Fun.id }
  in
  {
    Harness.Scenario.duration_ms = 5_000.0;
    requests;
    entities = Hot { entity; maximum = 5_000 };
    faults;
    window_ms = 1_000.0;
    sketch_k = 8;
    spec = Fun.id;
    arms = [ arm ];
    traced = [];
    report = (fun _ _ -> ());
  }

let scenario_audits_built_arms () =
  (* A prebuilt system is audited through its facade: a failed invariant
     is a violation and an Invariant recorder event, as for Samya arms. *)
  let build () =
    { (samya_system ()) with Harness.Systems.invariant = (fun ~maximum:_ -> Error "forged") }
  in
  let plan = one_arm_plan build in
  let c = Harness.Scenario.capture ~engine_jobs:1 plan (List.hd plan.arms) in
  check
    Alcotest.(list (pair string string))
    "violation" [ (entity, "forged") ] c.Harness.Scenario.violations;
  check Alcotest.string "verdict" "VIOLATED: forged" (Harness.Scenario.verdict c);
  check bool "Invariant recorder event" true
    (List.exists
       (fun (ev : Obs.Flight_recorder.event) ->
         ev.Obs.Flight_recorder.kind = Obs.Flight_recorder.Invariant
         && ev.Obs.Flight_recorder.entity = entity
         && ev.Obs.Flight_recorder.detail = "forged")
       (Obs.Flight_recorder.events c.Harness.Scenario.flight))

let scenario_injects_crashes () =
  (* A crash with an infinite heal time never recovers; a finite one
     recovers once, at its heal time. *)
  let crashed = ref [] and recovered = ref [] in
  let build () =
    let t = samya_system () in
    {
      t with
      Harness.Systems.crash_site =
        (fun site ->
          crashed := site :: !crashed;
          t.Harness.Systems.crash_site site);
      recover_site =
        (fun site ->
          recovered := site :: !recovered;
          t.Harness.Systems.recover_site site);
    }
  in
  let crash site heal_ms = { Chaos.Nemesis.kind = Crash { site }; at_ms = 1_000.0; heal_ms } in
  let plan = one_arm_plan ~faults:[ crash 2 infinity; crash 3 2_000.0 ] build in
  ignore (Harness.Scenario.capture ~engine_jobs:1 plan (List.hd plan.arms));
  check Alcotest.(list int) "crashed once each" [ 2; 3 ] (List.sort compare !crashed);
  check Alcotest.(list int) "only the healed crash recovers" [ 3 ] !recovered

let scenario_refuses_other_faults () =
  let cut = { Chaos.Nemesis.kind = One_way_cut { src = 0; dst = 1 }; at_ms = 1_000.0; heal_ms = 2_000.0 } in
  let plan = one_arm_plan ~faults:[ cut ] (fun () -> samya_system ()) in
  Alcotest.check_raises "one-way cut"
    (Invalid_argument "Scenario: only crashes and partitions are injected") (fun () ->
      ignore (Harness.Scenario.capture ~engine_jobs:1 plan (List.hd plan.arms)))

let suite =
  [
    Alcotest.test_case "driver: counts commits" `Quick driver_counts_commits;
    Alcotest.test_case "driver: client crash" `Quick driver_client_crash_stops_stream;
    Alcotest.test_case "driver: no phantom releases" `Quick driver_never_releases_unacquired;
    Alcotest.test_case "driver: closed loop" `Quick driver_closed_loop_runs;
    Alcotest.test_case "driver: by_entity folds the reply logs" `Quick driver_by_entity_fold;
    Alcotest.test_case "driver: by_phase splits the run's samples" `Quick
      driver_by_phase_split;
    Alcotest.test_case "driver: at most 255 phase boundaries" `Quick
      driver_rejects_too_many_phases;
    Alcotest.test_case "driver: rejects non-finite window" `Quick
      driver_rejects_non_finite_window;
    Alcotest.test_case "gateway: key names" `Quick gateway_key_names;
    Alcotest.test_case "scenario: built arms audited" `Quick scenario_audits_built_arms;
    Alcotest.test_case "scenario: crash faults" `Quick scenario_injects_crashes;
    Alcotest.test_case "scenario: other faults refused" `Quick scenario_refuses_other_faults;
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
