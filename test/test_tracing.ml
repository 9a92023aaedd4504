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

(* A cleared sketch is a fresh one: the controller resets its window
   sketch in place instead of allocating another. *)
let sketch_clear_is_fresh =
  QCheck.Test.make ~count:200 ~name:"sketch clear equals a fresh sketch"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let s = sketch_of xs in
      Obs.Quantile_sketch.clear s;
      List.iter (Obs.Quantile_sketch.add s) ys;
      Obs.Quantile_sketch.equal s (sketch_of ys))

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
      Obs.Trace_log.Submitted { trace = 3; client = 0; kind = "req.acquire"; entity = ""; ts = 0.0 };
      Obs.Trace_log.Accepted { trace = 3; site = 1; ts = 10.0 };
      Obs.Trace_log.Enqueued { trace = 3; site = 1; label = "admission"; ts = 10.0 };
      Obs.Trace_log.Dequeued { trace = 3; site = 1; ts = 25.0 };
      Obs.Trace_log.Phase { trace = 3; site = 1; name = "accept"; t0 = 25.0; t1 = 60.0 };
      (* Hops under the phase lose to it; only their overhang counts. *)
      Obs.Trace_log.Hop { trace = 3; edge = 9; src = 1; dst = 2; t0 = 30.0; t1 = 70.0 };
      Obs.Trace_log.Service { trace = 3; site = 1; t0 = 70.0; t1 = 75.0 };
      Obs.Trace_log.Completed { trace = 3; outcome = "granted"; ts = 90.0 };
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
      Obs.Trace_log.Submitted { trace = 1; client = 2; kind = "req.read"; entity = ""; ts = 0.0 };
      Obs.Trace_log.Service { trace = 1; site = 0; t0 = 10.0; t1 = 20.0 };
      Obs.Trace_log.Hop { trace = 1; edge = 4; src = 0; dst = 1; t0 = 32.0; t1 = 40.0 };
      Obs.Trace_log.Completed { trace = 1; outcome = "granted"; ts = 50.0 };
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
      Obs.Trace_log.Submitted { trace = 1; client = 0; kind = "req.acquire"; entity = ""; ts = 0.0 };
      Obs.Trace_log.Submitted { trace = 2; client = 0; kind = "req.acquire"; entity = ""; ts = 1.0 };
      Obs.Trace_log.Completed { trace = 2; outcome = "rejected"; ts = 4.0 };
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
  let f = Obs.Slo.feed slo in
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:100.0 ~latency_ms:10.0;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:200.0 ~latency_ms:20.0;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:1_100.0 ~latency_ms:400.0;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:1_200.0 ~latency_ms:500.0;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:3_100.0 ~latency_ms:10.0;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:3_200.0 ~latency_ms:20.0;
  Obs.Slo.Feed.abort f ~cls:"" ~start_ms:0.0 ~now_ms:3_300.0;
  Obs.Slo.absorb slo f;
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
  let f = Obs.Slo.feed slo in
  for i = 1 to 50 do
    Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:(float_of_int i *. 100.0)
      ~latency_ms:5.0
  done;
  Obs.Slo.absorb slo f;
  let lines = Obs.Slo.report slo in
  check bool "healthy" true (Obs.Slo.healthy lines);
  let p50 = slo_line lines "p50_latency" in
  check int "no violations" 0 p50.Obs.Slo.violations;
  check bool "overall from cumulative sketch" true
    (p50.Obs.Slo.overall >= 5.0 && p50.Obs.Slo.overall <= 6.0)

let slo_rejects_non_finite_window () =
  List.iter
    (fun window_ms ->
      check bool
        (Printf.sprintf "window_ms %g rejected" window_ms)
        true
        (match Obs.Slo.create ~window_ms () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ infinity; Float.nan; neg_infinity; 0.0; -1.0 ]

let slo_counts_unindexable_stamps () =
  (* Stamps with no sensible window index still land in a cell of their
     own feed: counted, not lost. On amd64 NaN, the infinities and huge
     values all map to window 0, and 2^62 windows wraps to [min_int]. *)
  let slo = Obs.Slo.create ~window_ms:1_000.0 () in
  let f = Obs.Slo.feed slo in
  Obs.Slo.Feed.abort f ~cls:"shed" ~start_ms:0.0 ~now_ms:(0x1p62 *. 1_000.0);
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:Float.nan ~latency_ms:5.0;
  Obs.Slo.Feed.abort f ~cls:"shed" ~start_ms:0.0 ~now_ms:infinity;
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:1e300 ~latency_ms:5.0;
  Obs.Slo.absorb slo f;
  let aborts = slo_line (Obs.Slo.report slo) "abort_rate" in
  check bool "windows evaluated" true (aborts.Obs.Slo.windows >= 1);
  check bool "every sample counted" true (aborts.Obs.Slo.overall = 0.5);
  check bool "every abort classed" true
    (Obs.Slo.abort_classes slo = [ ("shed", 2) ])

(* Merge exactness: per-slot feeds absorbed after the fact report exactly
   what one monitor fed the same samples in time order reports — lines
   (bit-for-bit), abort classes and the breach-hook call sequence. The
   reference is a model written here, not [Obs.Slo]: it groups the stamps
   by window, builds one sketch per group and evaluates the groups in
   order, so a wrong window rule, boundary or idle-gap handling in the
   monitor shows. The stream mixes repeated stamps, stamps exactly on
   window boundaries and idle gaps of two or more windows. *)
type slo_step = {
  advance : [ `Stay | `By of float | `Boundary | `Idle of int * float ];
  slot : int;
  outcome : int;  (* 0 commit, 1-4 classed abort, 5 unattributed abort *)
  latency : float;
}

let slo_stream_gen =
  QCheck.Gen.(
    let* window_ms = oneofl [ 1_000.0; 250.0; 0.3 ] in
    let* start_ms = oneofl [ 0.0; 1_234.5 ] in
    let* slots = int_range 1 4 in
    let step =
      let* advance =
        frequency
          [
            (3, return `Stay);
            (6, map (fun f -> `By f) (float_bound_exclusive 1.0));
            (2, return `Boundary);
            ( 1,
              map2
                (fun n f -> `Idle (n, f))
                (int_range 2 5)
                (oneof [ return 0.0; float_bound_exclusive 1.0 ]) );
          ]
      in
      let* slot = int_bound (slots - 1) in
      (* Mixes chosen so windows both pass and breach each objective. *)
      let* outcome = frequency [ (5, return 0); (3, int_range 1 5) ] in
      let* latency =
        frequency
          [
            (8, float_bound_inclusive 600.0);
            (4, float_range 600.0 3_000.0);
            (1, return Float.nan);
          ]
      in
      return { advance; slot; outcome; latency }
    in
    let* steps = list_size (int_range 0 150) step in
    return (window_ms, start_ms, slots, steps))

let slo_classes = [| ""; "rejected"; "unavailable"; "shed"; "timeout"; "" |]

(* Absolute stamps of a stream, in time order. Window [k] is
   [[k * w, (k+1) * w)] past the start, so a boundary is an exact
   multiple of [w] past it. *)
let slo_stamps window_ms start_ms steps =
  let t = ref 0.0 in
  List.map
    (fun st ->
      let k = Float.floor (!t /. window_ms) in
      (t :=
         match st.advance with
         | `Stay -> !t
         | `By f -> !t +. (f *. window_ms)
         | `Boundary -> (k +. 1.0) *. window_ms
         | `Idle (n, f) -> (k +. float_of_int n +. f) *. window_ms);
      (start_ms +. !t, st))
    steps

let slo_objectives =
  [
    Obs.Slo.Latency { name = "p50"; q = 0.5; target_ms = 800.0 };
    Obs.Slo.Latency { name = "p95"; q = 0.95; target_ms = 2_500.0 };
    Obs.Slo.Abort_rate { name = "aborts"; max_rate = 0.5 };
  ]

let slo_line_string (l : Obs.Slo.report_line) =
  Printf.sprintf "%s %s q=%h target=%h %d/%d worst=%h overall=%h" l.Obs.Slo.name
    l.kind l.q l.target l.violations l.windows l.worst l.overall

let slo_call_string ~name ~start ~stop ~value ~target =
  Printf.sprintf "%s [%h, %h) %h > %h" name start stop value target

(* The reference: (report lines, abort classes, breach calls). *)
let slo_model window_ms start_ms stamped =
  let groups = Hashtbl.create 16 in
  let total = Obs.Quantile_sketch.create () in
  let classes = Hashtbl.create 8 in
  List.iter
    (fun (t, st) ->
      let k = int_of_float (Float.floor ((t -. start_ms) /. window_ms)) in
      let sketch, commits, aborts =
        match Hashtbl.find_opt groups k with
        | Some g -> g
        | None ->
            let g = (Obs.Quantile_sketch.create (), ref 0, ref 0) in
            Hashtbl.add groups k g;
            g
      in
      if st.outcome = 0 then begin
        Obs.Quantile_sketch.add sketch st.latency;
        Obs.Quantile_sketch.add total st.latency;
        incr commits
      end
      else begin
        incr aborts;
        let cls = slo_classes.(st.outcome) in
        if cls <> "" then
          Hashtbl.replace classes cls
            (1 + Option.value ~default:0 (Hashtbl.find_opt classes cls))
      end)
    stamped;
  let keys = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) groups []) in
  let n = List.length slo_objectives in
  let violations = Array.make n 0 and worst = Array.make n Float.nan in
  let calls = ref [] and total_commits = ref 0 and total_aborts = ref 0 in
  List.iter
    (fun k ->
      let sketch, commits, aborts = Hashtbl.find groups k in
      total_commits := !total_commits + !commits;
      total_aborts := !total_aborts + !aborts;
      let start = float_of_int k *. window_ms in
      let stop = float_of_int (k + 1) *. window_ms in
      let judge i name value target =
        if Float.is_nan worst.(i) || value > worst.(i) then worst.(i) <- value;
        if value > target then begin
          violations.(i) <- violations.(i) + 1;
          calls := slo_call_string ~name ~start ~stop ~value ~target :: !calls
        end
      in
      List.iteri
        (fun i -> function
          | Obs.Slo.Latency { name; q; target_ms } ->
              if Obs.Quantile_sketch.count sketch > 0 then
                judge i name (Obs.Quantile_sketch.quantile sketch q) target_ms
          | Obs.Slo.Abort_rate { name; max_rate } ->
              judge i name
                (float_of_int !aborts /. float_of_int (!commits + !aborts))
                max_rate)
        slo_objectives)
    keys;
  let windows = List.length keys in
  let requests = !total_commits + !total_aborts in
  let lines =
    List.mapi
      (fun i -> function
        | Obs.Slo.Latency { name; q; target_ms } ->
            {
              Obs.Slo.name;
              kind = "latency";
              q;
              target = target_ms;
              windows;
              violations = violations.(i);
              worst = worst.(i);
              overall = Obs.Quantile_sketch.quantile total q;
            }
        | Obs.Slo.Abort_rate { name; max_rate } ->
            {
              Obs.Slo.name;
              kind = "abort_rate";
              q = Float.nan;
              target = max_rate;
              windows;
              violations = violations.(i);
              worst = worst.(i);
              overall =
                (if requests = 0 then Float.nan
                 else float_of_int !total_aborts /. float_of_int requests);
            })
      slo_objectives
  in
  let classes =
    List.sort compare (Hashtbl.fold (fun c n l -> (c, n) :: l) classes [])
  in
  (List.map slo_line_string lines, classes, List.rev !calls)

(* Per-slot feeds, absorbed in [order]: the driver's path. *)
let slo_merged window_ms start_ms slots stamped order =
  let slo = Obs.Slo.create ~window_ms ~objectives:slo_objectives () in
  let calls = ref [] in
  Obs.Slo.on_violation slo
    (fun ~name ~window_start_ms ~window_end_ms ~value ~target ->
      calls :=
        slo_call_string ~name ~start:window_start_ms ~stop:window_end_ms ~value
          ~target
        :: !calls);
  let feeds = Array.init slots (fun _ -> Obs.Slo.feed slo) in
  List.iter
    (fun (now_ms, st) ->
      let f = feeds.(st.slot) in
      if st.outcome = 0 then
        Obs.Slo.Feed.commit f ~start_ms ~now_ms ~latency_ms:st.latency
      else Obs.Slo.Feed.abort f ~cls:slo_classes.(st.outcome) ~start_ms ~now_ms)
    stamped;
  List.iter (fun s -> Obs.Slo.absorb slo feeds.(s)) order;
  Obs.Slo.flush slo;
  let lines = List.map slo_line_string (Obs.Slo.report slo) in
  (lines, Obs.Slo.abort_classes slo, List.rev !calls)

let slo_merge_is_exact =
  QCheck.Test.make ~count:300 ~name:"slo: per-slot feeds merge exactly"
    (QCheck.make slo_stream_gen ~print:(fun (w, start, slots, steps) ->
         Printf.sprintf "window %g start %g slots %d, %d steps" w start slots
           (List.length steps)))
    (fun (window_ms, start_ms, slots, steps) ->
      let stamped = slo_stamps window_ms start_ms steps in
      let expected = slo_model window_ms start_ms stamped in
      let merged = slo_merged window_ms start_ms in
      let slot_order = List.init slots Fun.id in
      (* One feed fed in time order, too: the model's own setting. *)
      let single = List.map (fun (t, st) -> (t, { st with slot = 0 })) stamped in
      expected = merged 1 single [ 0 ]
      && expected = merged slots stamped slot_order
      && expected = merged slots stamped (List.rev slot_order))

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
  let plan =
    Harness.Scenario.paper ~duration_ms ~requests ~window_ms:10_000.0
      ~report:(fun _ _ -> ()) builders
  in
  let plan = { plan with entities = Hot { entity; maximum = 500 } } in
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
    Alcotest.test_case "slo: rejects non-finite window" `Quick
      slo_rejects_non_finite_window;
    QCheck_alcotest.to_alcotest slo_merge_is_exact;
    Alcotest.test_case "slo: counts unindexable stamps" `Quick
      slo_counts_unindexable_stamps;
    Alcotest.test_case "explain: deterministic and >=95% attributed" `Slow
      explain_deterministic_and_attributed;
    QCheck_alcotest.to_alcotest sketch_clear_is_fresh;
  ]
