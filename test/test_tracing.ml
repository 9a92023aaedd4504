(* Tests for the causal-tracing stack: the trace-context algebra and its
   ambient propagation through the engine, the quantile-sketch merge
   algebra (qcheck'd) and its rank-error bound against the exact sample
   set, critical-path attribution on synthetic logs, the SLO monitor's
   window accounting, and the end-to-end `explain` path — byte-identical
   across pool parallelism and attributing >= 95% of every completed
   request's wall time. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Trace context + engine propagation *)

let context_algebra () =
  check bool "none is none" true (Des.Trace_context.is_none Des.Trace_context.none);
  let root = Des.Trace_context.root ~trace:7 in
  check bool "root is live" false (Des.Trace_context.is_none root);
  check int "root trace" 7 root.Des.Trace_context.trace;
  check int "root hop" 0 root.Des.Trace_context.hop;
  let c = Des.Trace_context.child root ~edge:42 in
  check int "child keeps trace" 7 c.Des.Trace_context.trace;
  check int "child parent edge" 42 c.Des.Trace_context.parent;
  check int "child hop" 1 c.Des.Trace_context.hop

let engine_propagates_context () =
  let engine = Des.Engine.create () in
  let seen = ref [] in
  let note tag =
    seen := (tag, (Des.Engine.current_context engine).Des.Trace_context.trace) :: !seen
  in
  Des.Engine.with_context engine (Des.Trace_context.root ~trace:1) (fun () ->
      (* Timers scheduled inside a context inherit it, including nested
         reschedules... *)
      Des.Engine.schedule engine ~delay_ms:5.0 (fun () ->
          note "inner";
          Des.Engine.schedule engine ~delay_ms:5.0 (fun () -> note "nested")));
  (* ...while timers scheduled outside stay context-free. *)
  Des.Engine.schedule engine ~delay_ms:7.0 (fun () ->
      seen :=
        ("outside", if Des.Trace_context.is_none (Des.Engine.current_context engine)
                    then -1 else -2)
        :: !seen);
  Des.Engine.run engine ~until_ms:100.0;
  check bool "ambient context restored" true
    (Des.Trace_context.is_none (Des.Engine.current_context engine));
  let expected = [ ("inner", 1); ("outside", -1); ("nested", 1) ] in
  check
    Alcotest.(list (pair string int))
    "closures carry their scheduling context" expected (List.rev !seen)

let fresh_ids_consume_no_randomness () =
  let a = Des.Engine.create ~seed:9L () in
  let b = Des.Engine.create ~seed:9L () in
  ignore (Des.Engine.fresh_id a);
  ignore (Des.Engine.fresh_id a);
  check bool "rng stream unchanged by fresh_id" true
    (Des.Rng.int (Des.Engine.rng a) 1_000_000
    = Des.Rng.int (Des.Engine.rng b) 1_000_000)

(* ------------------------------------------------------------------ *)
(* Quantile sketch: merge algebra (qcheck) and rank-error bound *)

let sketch_of values =
  let s = Obs.Quantile_sketch.create () in
  List.iter (Obs.Quantile_sketch.add s) values;
  s

let values_gen = QCheck.(list (float_range 0.0 10_000.0))

let sketch_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"sketch merge is commutative"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      Obs.Quantile_sketch.equal
        (Obs.Quantile_sketch.merge a b)
        (Obs.Quantile_sketch.merge b a))

let sketch_merge_associative =
  QCheck.Test.make ~count:200 ~name:"sketch merge is associative"
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Obs.Quantile_sketch.equal
        (Obs.Quantile_sketch.merge (Obs.Quantile_sketch.merge a b) c)
        (Obs.Quantile_sketch.merge a (Obs.Quantile_sketch.merge b c)))

let sketch_merge_is_concat =
  QCheck.Test.make ~count:200 ~name:"sketch merge equals sketching the concatenation"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      Obs.Quantile_sketch.equal
        (Obs.Quantile_sketch.merge (sketch_of xs) (sketch_of ys))
        (sketch_of (xs @ ys)))

(* The documented contract: for the exact nearest-rank value v (> 1e-3),
   the sketch reports v' with v <= v' < v * gamma. Checked against the
   harness's exact order statistics on a deterministic heavy-tailed
   stream. *)
let sketch_rank_error_bound () =
  let sketch = Obs.Quantile_sketch.create () in
  let exact = Stats.Sample_set.create () in
  let state = ref 0x2545F4914F6CDD1DL in
  let next () =
    (* xorshift64*: deterministic, no dependency on the engine RNG. *)
    let x = !state in
    let x = Int64.logxor x (Int64.shift_right_logical x 12) in
    let x = Int64.logxor x (Int64.shift_left x 25) in
    let x = Int64.logxor x (Int64.shift_right_logical x 27) in
    state := x;
    let u =
      Int64.to_float (Int64.shift_right_logical x 11) /. 9007199254740992.0
    in
    (* Latency-shaped: ~2 ms floor with a long multiplicative tail. *)
    2.0 *. exp (6.0 *. u)
  in
  for _ = 1 to 20_000 do
    let v = next () in
    Obs.Quantile_sketch.add sketch v;
    Stats.Sample_set.add exact v
  done;
  let sorted = Stats.Sample_set.to_sorted_array exact in
  let gamma = Obs.Quantile_sketch.gamma in
  List.iter
    (fun q ->
      (* Exact nearest-rank (the sketch's convention; Sample_set's
         [percentile] interpolates, so rank directly). *)
      let rank =
        max 0 (min (Array.length sorted - 1)
                 (int_of_float (ceil (q *. float_of_int (Array.length sorted))) - 1))
      in
      let v = sorted.(rank) in
      let v' = Obs.Quantile_sketch.quantile sketch q in
      if not (v' >= v *. (1.0 -. 1e-9) && v' < v *. gamma) then
        Alcotest.failf "q=%.3f: exact %.6f, sketch %.6f outside [v, v*%.4f)" q v v'
          gamma)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ];
  check int "counts agree" (Stats.Sample_set.count exact)
    (Obs.Quantile_sketch.count sketch)

(* ------------------------------------------------------------------ *)
(* Critical path on synthetic logs *)

let component breakdown name =
  match
    List.find_opt
      (fun c -> c.Obs.Critical_path.comp = name)
      breakdown.Obs.Critical_path.components
  with
  | Some c -> c.Obs.Critical_path.ms
  | None -> 0.0

let feq name expected actual =
  if Float.abs (expected -. actual) > 1e-6 then
    Alcotest.failf "%s: expected %.6f, got %.6f" name expected actual

let critical_path_partitions_window () =
  let events =
    [
      Obs.Causal.Submitted { trace = 3; client = 0; kind = "req.acquire"; entity = ""; ts = 0.0 };
      Obs.Causal.Accepted { trace = 3; site = 1; ts = 10.0 };
      Obs.Causal.Enqueued { trace = 3; site = 1; label = "admission"; ts = 10.0 };
      Obs.Causal.Dequeued { trace = 3; site = 1; ts = 25.0 };
      Obs.Causal.Phase { trace = 3; site = 1; name = "accept"; t0 = 25.0; t1 = 60.0 };
      (* Hops under the phase lose to it; only their overhang counts. *)
      Obs.Causal.Hop { trace = 3; edge = 9; src = 1; dst = 2; t0 = 30.0; t1 = 70.0 };
      Obs.Causal.Service { trace = 3; site = 1; t0 = 70.0; t1 = 75.0 };
      Obs.Causal.Completed { trace = 3; outcome = "granted"; ts = 90.0 };
    ]
  in
  match Obs.Critical_path.analyze events with
  | [ b ] ->
      feq "wall" 90.0 b.Obs.Critical_path.wall_ms;
      feq "queue" 15.0 (component b "queue.admission");
      feq "phase" 35.0 (component b "protocol.accept");
      feq "hop overhang" 10.0 (component b "wan.replication");
      feq "service" 5.0 (component b "local.service");
      (* Leading [0,10] and trailing [75,90] uncovered -> client legs. *)
      feq "client legs" 25.0 (component b "wan.client");
      feq "nothing unattributed" 0.0 (component b "other");
      feq "fraction" 1.0 (Obs.Critical_path.attributed_fraction b)
  | bds -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bds)

let critical_path_reports_interior_gap () =
  let events =
    [
      Obs.Causal.Submitted { trace = 1; client = 2; kind = "req.read"; entity = ""; ts = 0.0 };
      Obs.Causal.Service { trace = 1; site = 0; t0 = 10.0; t1 = 20.0 };
      Obs.Causal.Hop { trace = 1; edge = 4; src = 0; dst = 1; t0 = 32.0; t1 = 40.0 };
      Obs.Causal.Completed { trace = 1; outcome = "granted"; ts = 50.0 };
    ]
  in
  match Obs.Critical_path.analyze events with
  | [ b ] ->
      (* [20,32] touches neither window edge: honest "other", not client WAN. *)
      feq "interior gap" 12.0 (component b "other");
      feq "client legs" 20.0 (component b "wan.client");
      feq "attributed" 38.0 b.Obs.Critical_path.attributed_ms;
      feq "fraction" (38.0 /. 50.0) (Obs.Critical_path.attributed_fraction b)
  | bds -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bds)

let critical_path_ignores_incomplete () =
  let events =
    [
      Obs.Causal.Submitted { trace = 1; client = 0; kind = "req.acquire"; entity = ""; ts = 0.0 };
      Obs.Causal.Submitted { trace = 2; client = 0; kind = "req.acquire"; entity = ""; ts = 1.0 };
      Obs.Causal.Completed { trace = 2; outcome = "rejected"; ts = 4.0 };
    ]
  in
  check int "submitted" 2 (Obs.Critical_path.submitted_count events);
  match Obs.Critical_path.analyze events with
  | [ b ] ->
      check int "only the completed trace" 2 b.Obs.Critical_path.trace;
      check string "outcome" "rejected" b.Obs.Critical_path.outcome;
      (* Zero-event window: everything is the client's round trip. *)
      feq "all client" 3.0 (component b "wan.client");
      feq "fraction" 1.0 (Obs.Critical_path.attributed_fraction b)
  | bds -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bds)

(* ------------------------------------------------------------------ *)
(* SLO monitor *)

let slo_line lines name =
  match List.find_opt (fun l -> l.Obs.Slo.name = name) lines with
  | Some l -> l
  | None -> Alcotest.failf "objective %s missing from report" name

let slo_counts_violating_windows () =
  let slo =
    Obs.Slo.create ~window_ms:1_000.0
      ~objectives:
        [
          Obs.Slo.Latency { name = "p50"; q = 0.5; target_ms = 100.0 };
          Obs.Slo.Abort_rate { name = "aborts"; max_rate = 0.25 };
        ]
      ()
  in
  (* Window 1: fast and clean. Window 2 ([1000,2000)): slow. Window 3:
     empty (skipped). Window 4: fast but 1/3 aborted. *)
  Obs.Slo.commit slo ~now_ms:100.0 ~latency_ms:10.0;
  Obs.Slo.commit slo ~now_ms:200.0 ~latency_ms:20.0;
  Obs.Slo.commit slo ~now_ms:1_100.0 ~latency_ms:400.0;
  Obs.Slo.commit slo ~now_ms:1_200.0 ~latency_ms:500.0;
  Obs.Slo.commit slo ~now_ms:3_100.0 ~latency_ms:10.0;
  Obs.Slo.commit slo ~now_ms:3_200.0 ~latency_ms:20.0;
  Obs.Slo.abort slo ~now_ms:3_300.0;
  let lines = Obs.Slo.report slo in
  check bool "unhealthy" false (Obs.Slo.healthy lines);
  let p50 = slo_line lines "p50" in
  check int "latency windows evaluated" 3 p50.Obs.Slo.windows;
  check int "one slow window" 1 p50.Obs.Slo.violations;
  check bool "worst is the slow window's p50" true (p50.Obs.Slo.worst >= 400.0);
  let aborts = slo_line lines "aborts" in
  check int "abort windows evaluated" 3 aborts.Obs.Slo.windows;
  check int "one aborting window" 1 aborts.Obs.Slo.violations;
  check bool "abort fraction" true (Float.abs (aborts.Obs.Slo.worst -. (1.0 /. 3.0)) < 1e-9)

let slo_healthy_run () =
  let slo = Obs.Slo.create ~window_ms:1_000.0 () in
  for i = 1 to 50 do
    Obs.Slo.commit slo ~now_ms:(float_of_int i *. 100.0) ~latency_ms:5.0
  done;
  let lines = Obs.Slo.report slo in
  check bool "healthy" true (Obs.Slo.healthy lines);
  let p50 = slo_line lines "p50_latency" in
  check int "no violations" 0 p50.Obs.Slo.violations;
  check bool "overall from cumulative sketch" true
    (p50.Obs.Slo.overall >= 5.0 && p50.Obs.Slo.overall <= 6.0)

(* ------------------------------------------------------------------ *)
(* End to end: explain / slo over real systems, across pool parallelism *)

let with_jobs jobs f =
  Harness.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Harness.Pool.set_jobs 1) f

let explain_deterministic_and_attributed () =
  let ctx =
    Harness.Lab.create ~params:{ Trace.Azure_trace.default_params with days = 5 } ()
  in
  let regions = Harness.Exp_common.client_regions () in
  let duration_ms = 60_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:regions ~duration_ms ~seed:4L ()
  in
  let entity = Harness.Exp_common.entity in
  (* One of each instrumentation style: Samya (redistribution queues +
     Avantan phases), escrow borrowing, and a leader-based serialized
     queue with retries. A small maximum keeps redistribution busy. *)
  let builders =
    [
      ( "samya",
        fun () ->
          Harness.Systems.samya ~seed:3L ~config:Samya.Config.default ~regions
            ~entity ~maximum:500 () );
      ( "demarcation",
        fun () ->
          Harness.Systems.demarcation ~seed:3L ~regions ~entity ~maximum:500 () );
      ("cockroach", fun () -> Harness.Systems.cockroach ~seed:3L ~entity ~maximum:500 ());
    ]
  in
  let arms =
    List.map
      (fun (label, build) ->
        {
          Harness.Scenario.id = label;
          label;
          name = label;
          system = Built build;
          spec = Fun.id;
        })
      builders
  in
  let plan =
    {
      Harness.Scenario.duration_ms;
      requests;
      entities = Hot { entity; maximum = 500 };
      faults = [];
      window_ms = 10_000.0;
      sketch_k = 8;
      spec = (fun spec -> { spec with Harness.Driver.drain_ms = 30_000.0 });
      arms;
      traced = List.map (fun (a : Harness.Scenario.arm) -> a.id) arms;
      report = (fun _ _ -> ());
    }
  in
  let capture () =
    let captures = Harness.Scenario.trace plan in
    let explain =
      Format.asprintf "%t" (fun fmt ->
          Harness.Exp_trace.explain fmt ~slowest:5 captures)
    in
    let slo_doc = Harness.Exp_trace.slo_json captures in
    (captures, explain, slo_doc)
  in
  let captures, explain1, slo1 = with_jobs 1 capture in
  let _, explain2, slo2 = with_jobs 2 capture in
  check string "explain byte-identical across jobs" explain1 explain2;
  check string "slo json byte-identical across jobs" slo1 slo2;
  List.iter
    (fun (c : Harness.Scenario.capture) ->
      let bds = Harness.Exp_trace.breakdowns c in
      check bool
        (c.arm.name ^ ": has completed traced requests")
        true (bds <> []);
      List.iter
        (fun b ->
          let f = Obs.Critical_path.attributed_fraction b in
          if f < 0.95 then
            Alcotest.failf "%s trace %d: only %.1f%% of %.2f ms attributed"
              c.arm.name b.Obs.Critical_path.trace (100.0 *. f)
              b.Obs.Critical_path.wall_ms)
        bds)
    captures

let suite =
  [
    Alcotest.test_case "context: algebra" `Quick context_algebra;
    Alcotest.test_case "context: engine propagation" `Quick engine_propagates_context;
    Alcotest.test_case "context: fresh ids leave rng alone" `Quick
      fresh_ids_consume_no_randomness;
    QCheck_alcotest.to_alcotest sketch_merge_commutative;
    QCheck_alcotest.to_alcotest sketch_merge_associative;
    QCheck_alcotest.to_alcotest sketch_merge_is_concat;
    Alcotest.test_case "sketch: rank-error bound vs exact" `Quick
      sketch_rank_error_bound;
    Alcotest.test_case "critical path: partitions the window" `Quick
      critical_path_partitions_window;
    Alcotest.test_case "critical path: honest interior gap" `Quick
      critical_path_reports_interior_gap;
    Alcotest.test_case "critical path: incomplete traces skipped" `Quick
      critical_path_ignores_incomplete;
    Alcotest.test_case "slo: counts violating windows" `Quick
      slo_counts_violating_windows;
    Alcotest.test_case "slo: healthy run" `Quick slo_healthy_run;
    Alcotest.test_case "explain: deterministic and >=95% attributed" `Slow
      explain_deterministic_and_attributed;
  ]
