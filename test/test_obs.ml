(* Tests for the observability layer: metric registry semantics (including
   the qcheck'd histogram-merge algebra), the per-lane trace log and its
   merge order, the trace_event/metrics exporters, and end-to-end trace
   determinism across pool and engine parallelism levels. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* A plain one-writer registry / log (one engine, no windows). *)
let single_clock () = Obs.Lane_log.single (fun () -> 0.0)
let registry () = Obs.Metrics.create (single_clock ())

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_instruments_interned () =
  let m = registry () in
  let c = Obs.Metrics.counter m "c" in
  Obs.Metrics.incr c;
  Obs.Metrics.add (Obs.Metrics.counter m "c") 4;
  check int "counter shared by name" 5 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge m "g" in
  Obs.Metrics.set g 2.0;
  Obs.Metrics.set (Obs.Metrics.gauge m "g") 7.0;
  Obs.Metrics.set g 3.0;
  check bool "gauge last" true (Obs.Metrics.gauge_value g = Some 3.0);
  check bool "gauge max survives later writes" true (Obs.Metrics.gauge_max g = Some 7.0)

let metrics_histogram_quantiles () =
  let m = registry () in
  let h = Obs.Metrics.histogram m "h" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let s = Obs.Metrics.snapshot_histogram h in
  check int "count" 1000 s.Obs.Metrics.count;
  check bool "min" true (s.Obs.Metrics.min = 1.0);
  check bool "max" true (s.Obs.Metrics.max = 1000.0);
  let p50 = Obs.Metrics.quantile s 0.5 in
  let p99 = Obs.Metrics.quantile s 0.99 in
  (* Log buckets are ~19% wide: quantiles are right up to one bucket. *)
  check bool "p50 near 500" true (p50 >= 450.0 && p50 <= 650.0);
  check bool "p99 near 990" true (p99 >= 900.0 && p99 <= 1300.0);
  check bool "p99 >= p50" true (p99 >= p50)

let snapshot_of_values values =
  let m = registry () in
  let h = Obs.Metrics.histogram m "h" in
  List.iter (Obs.Metrics.observe h) values;
  Obs.Metrics.snapshot_histogram h

(* Everything except the float [sum] must merge exactly; [sum] up to
   rounding. *)
let same_merged (a : Obs.Metrics.histogram_snapshot) (b : Obs.Metrics.histogram_snapshot) =
  let feq x y =
    (Float.is_nan x && Float.is_nan y)
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  in
  a.Obs.Metrics.count = b.Obs.Metrics.count
  && a.Obs.Metrics.buckets = b.Obs.Metrics.buckets
  && feq a.Obs.Metrics.min b.Obs.Metrics.min
  && feq a.Obs.Metrics.max b.Obs.Metrics.max
  && feq a.Obs.Metrics.sum b.Obs.Metrics.sum

let values_gen = QCheck.(list (float_range 0.0 10_000.0))

let merge_commutative =
  QCheck.Test.make ~count:200 ~name:"histogram merge is commutative"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = snapshot_of_values xs and b = snapshot_of_values ys in
      same_merged (Obs.Metrics.merge a b) (Obs.Metrics.merge b a))

let merge_associative =
  QCheck.Test.make ~count:200 ~name:"histogram merge is associative"
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = snapshot_of_values xs
      and b = snapshot_of_values ys
      and c = snapshot_of_values zs in
      same_merged
        (Obs.Metrics.merge (Obs.Metrics.merge a b) c)
        (Obs.Metrics.merge a (Obs.Metrics.merge b c)))

let merge_is_concat =
  QCheck.Test.make ~count:200 ~name:"merge equals observing the concatenation"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      same_merged
        (Obs.Metrics.merge (snapshot_of_values xs) (snapshot_of_values ys))
        (snapshot_of_values (xs @ ys)))

(* ------------------------------------------------------------------ *)
(* Spans *)

let span_records_in_order () =
  let clock = ref 0.0 in
  let t = Obs.Trace_log.create (Obs.Lane_log.single (fun () -> !clock)) in
  let span = Obs.Trace_log.start t ~cat:"c" ~tid:3 "work" in
  clock := 5.0;
  Obs.Trace_log.instant t ~tid:3 "tick";
  clock := 9.0;
  Obs.Trace_log.finish t ~args:[ ("k", "v") ] span;
  Obs.Trace_log.finish t span;
  match Obs.Trace_log.events t with
  | [ Obs.Trace_log.Instant { name = "tick"; ts = 5.0; _ };
      Obs.Trace_log.Complete { name = "work"; ts = 0.0; dur = 9.0; args = [ ("k", "v") ]; _ } ] ->
      ()
  | events -> Alcotest.failf "unexpected events (%d)" (List.length events)

(* The per-lane merge. A random program writes from lanes -1..k-1 across
   barrier epochs: in each epoch, lane -1 (the coordinator: setup,
   globals) writes first, then the window's lanes write in a random
   cross-lane interleaving, as parallel domains would. The trace log must
   read back exactly what one domain draining the windows in turn would
   have appended, and the registry must hold exactly the values of that
   sequential order — including the float sum and the gauge's last
   write. *)
type program = { lanes : int; epochs : int; writes : (int * int * int) list; seed : int }

let program_gen =
  QCheck.Gen.(
    let* lanes = int_range 1 4 in
    let* epochs = int_range 1 6 in
    let* writes =
      list_size (int_bound 80)
        (triple (int_bound (epochs - 1)) (int_range (-1) (lanes - 1)) (int_bound 1000))
    in
    let* seed = int in
    return { lanes; epochs; writes; seed })

let print_program p =
  Printf.sprintf "lanes=%d epochs=%d seed=%d writes=[%s]" p.lanes p.epochs p.seed
    (String.concat "; "
       (List.map (fun (e, l, v) -> Printf.sprintf "(%d,%d,%d)" e l v) p.writes))

let hop ~epoch ~lane v =
  Obs.Trace_log.Hop { trace = v; edge = epoch; src = lane; dst = 0; t0 = 0.0; t1 = 0.0 }

let observed v = float_of_int v /. 7.0

let lane_merge_matches_sequential_drain =
  QCheck.Test.make ~count:300 ~name:"trace log: lane merge equals a sequential drain"
    (QCheck.make ~print:print_program program_gen) (fun p ->
      let lane = ref (-1) and epoch = ref 0 in
      let clock =
        {
          Obs.Lane_log.lanes = p.lanes;
          lane = (fun () -> !lane);
          epoch = (fun () -> !epoch);
          now = (fun _ -> 0.0);
        }
      in
      let sink = Obs.Sink.create clock in
      let m = sink.Obs.Sink.metrics in
      let c = Obs.Metrics.counter m "c"
      and g = Obs.Metrics.gauge m "g"
      and h = Obs.Metrics.histogram m "h" in
      let write l v =
        lane := l;
        Obs.Trace_log.record sink.Obs.Sink.log (hop ~epoch:!epoch ~lane:l v);
        Obs.Metrics.add c v;
        Obs.Metrics.set g (float_of_int v);
        (* Resolving by name mid-window is what instrumented code does. *)
        Obs.Metrics.observe (Obs.Metrics.histogram m "h") (observed v)
      in
      let rng = Random.State.make [| p.seed |] in
      let of_lane e l =
        List.filter_map (fun (e', l', v) -> if e' = e && l' = l then Some v else None) p.writes
      in
      for e = 0 to p.epochs - 1 do
        epoch := e;
        List.iter (write (-1)) (of_lane e (-1));
        let queues = Array.init p.lanes (fun l -> ref (of_lane e l)) in
        let rec window () =
          match List.filter (fun l -> !(queues.(l)) <> []) (List.init p.lanes Fun.id) with
          | [] -> ()
          | ready ->
              let l = List.nth ready (Random.State.int rng (List.length ready)) in
              let queue = queues.(l) in
              write l (List.hd !queue);
              queue := List.tl !queue;
              window ()
        in
        window ();
        lane := -1
      done;
      (* The model: one domain, windows in turn, lane -1 first in each
         epoch, then lanes ascending. *)
      let sequential =
        List.stable_sort (fun (e, l, _) (e', l', _) -> compare (e, l) (e', l')) p.writes
      in
      let values = List.map (fun (_, _, v) -> v) sequential in
      let expected_events =
        List.map (fun (e, l, v) -> hop ~epoch:e ~lane:l v) sequential
      in
      let expected_sum = List.fold_left (fun acc v -> acc +. observed v) 0.0 values in
      let snap = Obs.Metrics.snapshot_histogram h in
      let last = match List.rev values with [] -> None | v :: _ -> Some (float_of_int v) in
      let max =
        if values = [] then None
        else Some (float_of_int (List.fold_left Stdlib.max min_int values))
      in
      Obs.Trace_log.events sink.Obs.Sink.log = expected_events
      && Obs.Metrics.counter_value c = List.fold_left ( + ) 0 values
      && Obs.Metrics.gauge_value g = last
      && Obs.Metrics.gauge_max g = max
      && snap.Obs.Metrics.count = List.length values
      && Int64.bits_of_float snap.Obs.Metrics.sum = Int64.bits_of_float expected_sum)

let sink_port_taps_late () =
  let port = Obs.Sink.port () in
  check bool "untapped" true (Obs.Sink.tap port = None);
  let sink = Obs.Sink.create (single_clock ()) in
  Obs.Sink.attach port sink;
  (match Obs.Sink.tap port with
  | Some s -> check bool "same sink" true (s == sink)
  | None -> Alcotest.fail "tap after attach");
  Obs.Sink.detach port;
  check bool "detached" true (Obs.Sink.tap port = None)

(* ------------------------------------------------------------------ *)
(* Export *)

let export_valid_trace () =
  let clock = ref 0.0 in
  let t = Obs.Trace_log.create (Obs.Lane_log.single (fun () -> !clock)) in
  Obs.Trace_log.record t (Obs.Trace_log.Thread_name { tid = 0; name = "site 0" });
  let span = Obs.Trace_log.start t ~cat:"net" "hop \"quoted\"\n" in
  clock := 1.5;
  Obs.Trace_log.finish t span;
  Obs.Trace_log.instant t ~args:[ ("why", "test") ] "drop";
  Obs.Trace_log.record t (Obs.Trace_log.Completed { trace = 1; outcome = "granted"; ts = 1.5 });
  let buf = Buffer.create 256 in
  Obs.Export.trace_json buf [ ("sys", t) ];
  let json = Buffer.contents buf in
  match Obs.Export.validate_trace json with
  | Ok events ->
      (* 3 span events + process_name metadata; the causal event stays out *)
      check int "events" 4 events
  | Error reason -> Alcotest.failf "invalid trace: %s\n%s" reason json

let export_rejects_garbage () =
  let invalid = [ ""; "[]"; "{\"traceEvents\": 3}"; "{\"traceEvents\": [3]}";
                  "{\"traceEvents\": [{\"ph\": \"X\"}]}" ] in
  List.iter
    (fun s ->
      match Obs.Export.validate_trace s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    invalid

let export_metrics_schema () =
  let m = registry () in
  Obs.Metrics.incr (Obs.Metrics.counter m "a.b");
  Obs.Metrics.observe (Obs.Metrics.histogram m "h") 4.2;
  let buf = Buffer.create 256 in
  Obs.Export.metrics_json buf ~meta:[ ("k", "v") ] [ ("sys", m) ];
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and l = String.length out in
    let rec go i = i + n <= l && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  check bool "schema header" true (contains "samya-metrics/1");
  check bool "meta" true (contains "\"k\":\"v\"");
  check bool "counter" true (contains "a.b")

(* JSON has no infinity: an infinite observation must still export a
   document [Export.parse] accepts, with the non-finite values as null. *)
let export_non_finite_metrics () =
  let m = registry () in
  let h = Obs.Metrics.histogram m "h" in
  Obs.Metrics.observe h 2.0;
  Obs.Metrics.observe h infinity;
  Obs.Metrics.set (Obs.Metrics.gauge m "g") neg_infinity;
  let buf = Buffer.create 256 in
  Obs.Export.metrics_json buf [ ("sys", m) ];
  let json = Buffer.contents buf in
  match Obs.Export.parse json with
  | Error reason -> Alcotest.failf "metrics document rejected: %s\n%s" reason json
  | Ok doc ->
      let lookup root path =
        List.fold_left (fun j k -> Option.bind j (Obs.Export.member k)) (Some root) path
      in
      let section =
        match lookup doc [ "sections" ] with
        | Some (Obs.Export.Arr [ s ]) -> s
        | _ -> Alcotest.fail "one section"
      in
      let is path v = lookup section path = Some v in
      check bool "histogram sum is null" true (is [ "histograms"; "h"; "sum" ] Obs.Export.Null);
      check bool "histogram max is null" true (is [ "histograms"; "h"; "max" ] Obs.Export.Null);
      check bool "histogram min kept" true (is [ "histograms"; "h"; "min" ] (Obs.Export.Num 2.0));
      check bool "gauge last is null" true (is [ "gauges"; "g"; "last" ] Obs.Export.Null)

(* ------------------------------------------------------------------ *)
(* End to end: facade subscription + driver, byte-identical across jobs *)

let entity = Harness.Exp_common.entity

let with_jobs jobs f =
  Harness.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Harness.Pool.set_jobs 1) f

let trace_deterministic_across_jobs () =
  let ctx =
    Harness.Lab.create ~params:{ Trace.Azure_trace.default_params with days = 5 } ()
  in
  let regions = Harness.Exp_common.client_regions () in
  let duration_ms = 60_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:regions ~duration_ms ~seed:4L ()
  in
  (* A small maximum forces redistributions, so the Avantan observer's
     spans are part of what must be deterministic. *)
  let samya engine_jobs () =
    Harness.Systems.samya ~seed:3L ~engine_jobs ~config:Samya.Config.default ~regions
      ~entity ~maximum:500 ()
  in
  let observe build =
    let t_system = build () in
    let sink = t_system.Harness.Systems.subscribe () in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:regions ~requests ~duration_ms)
        with
        Harness.Driver.obs = Some sink;
      }
    in
    ignore (Harness.Driver.run ~t_system spec);
    sink
  in
  let export captures =
    let buf = Buffer.create (1 lsl 16) in
    Obs.Export.trace_json buf (List.map (fun (l, s) -> (l, s.Obs.Sink.log)) captures);
    let mbuf = Buffer.create 4096 in
    Obs.Export.metrics_json mbuf
      (List.map (fun (l, s) -> (l, s.Obs.Sink.metrics)) captures);
    (Buffer.contents buf, Buffer.contents mbuf)
  in
  let capture () =
    export
      (Harness.Pool.map
         (fun (label, build) -> (label, observe build))
         [
           ("samya", samya 1);
           ( "multipaxsys",
             fun () -> Harness.Systems.multipaxsys ~seed:3L ~entity ~maximum:500 () );
         ])
  in
  let trace1, metrics1 = with_jobs 1 capture in
  let trace2, metrics2 = with_jobs 2 capture in
  (match Obs.Export.validate_trace trace1 with
  | Ok events -> check bool "trace has events" true (events > 100)
  | Error reason -> Alcotest.failf "invalid trace: %s" reason);
  check string "trace byte-identical across jobs" trace1 trace2;
  check string "metrics byte-identical across jobs" metrics1 metrics2;
  (* The Samya arm across engine worker domains: an observed run drains
     its windows in parallel, and every view must stay the same. *)
  let samya_at engine_jobs =
    let sink = observe (samya engine_jobs) in
    let trace, metrics = export [ ("samya", sink) ] in
    (trace, metrics, Obs.Critical_path.analyze (Obs.Trace_log.events sink.Obs.Sink.log))
  in
  let trace1, metrics1, paths1 = samya_at 1 in
  check bool "critical paths found" true (List.length paths1 > 100);
  List.iter
    (fun n ->
      let trace, metrics, paths = samya_at n in
      check string (Printf.sprintf "trace at engine_jobs %d" n) trace1 trace;
      check string (Printf.sprintf "metrics at engine_jobs %d" n) metrics1 metrics;
      check bool (Printf.sprintf "critical paths at engine_jobs %d" n) true (paths1 = paths))
    [ 2; 4 ]

let unsubscribed_run_matches_baseline () =
  (* The facade without a sink must not change results at all. *)
  let regions = Harness.Exp_common.client_regions () in
  let ctx =
    Harness.Lab.create ~params:{ Trace.Azure_trace.default_params with days = 5 } ()
  in
  let duration_ms = 60_000.0 in
  let requests =
    Harness.Lab.workload ctx ~client_regions:regions ~duration_ms ~seed:4L ()
  in
  let run ~observe =
    let t_system =
      Harness.Systems.samya ~seed:3L ~config:Samya.Config.default ~regions ~entity
        ~maximum:500 ()
    in
    let spec =
      Harness.Driver.default_spec ~client_regions:regions ~requests ~duration_ms
    in
    let spec =
      if observe then
        { spec with Harness.Driver.obs = Some (t_system.Harness.Systems.subscribe ()) }
      else spec
    in
    let result = Harness.Driver.run ~t_system spec in
    ( result.Harness.Driver.committed,
      result.Harness.Driver.rejected,
      (t_system.Harness.Systems.stats ()).Harness.Systems.redistributions )
  in
  check
    (Alcotest.triple int int int)
    "observing does not perturb the run" (run ~observe:false) (run ~observe:true)

let observed_spans_use_executing_lane_clock () =
  (* An observed sharded run stamps each span with the clock of the lane
     executing the event. Client request spans open and close on the
     client's lane; stamped with another lane's clock (say lane 0's,
     lagging while the client's lane drains), a request could look faster
     than the network allows. So no span may be shorter than the
     smallest client round trip: client -> app manager -> a site in the
     client's own region, and back. *)
  let plan = Harness.Exp_retrystorm.plan ~quick:true in
  let c =
    Harness.Scenario.capture ~engine_jobs:1 ~observe:true plan
      (Harness.Scenario.arm plan "admission")
  in
  let min_rtt =
    Array.fold_left
      (fun acc r ->
        Float.min acc
          (Geonet.Region.client_site_rtt_ms +. (2.0 *. Geonet.Region.one_way_ms r r)))
      infinity
      (Harness.Exp_common.client_regions ())
  in
  let sink = Option.get c.Harness.Scenario.sink in
  let durations =
    List.filter_map
      (function
        | Obs.Trace_log.Complete { cat = "request"; tid; dur; _ } when tid >= 1000 ->
            Some dur
        | _ -> None)
      (Obs.Trace_log.events sink.Obs.Sink.log)
  in
  check bool "request spans recorded" true (List.length durations > 1000);
  let short = List.filter (fun d -> d < min_rtt) durations in
  check int
    (Printf.sprintf "request spans shorter than the %.1f ms round trip (min %.3f ms)"
       min_rtt
       (List.fold_left Float.min infinity durations))
    0 (List.length short)

let suite =
  [
    Alcotest.test_case "metrics: interning" `Quick metrics_instruments_interned;
    Alcotest.test_case "metrics: histogram quantiles" `Quick metrics_histogram_quantiles;
    QCheck_alcotest.to_alcotest merge_commutative;
    QCheck_alcotest.to_alcotest merge_associative;
    QCheck_alcotest.to_alcotest merge_is_concat;
    Alcotest.test_case "span: records in order" `Quick span_records_in_order;
    QCheck_alcotest.to_alcotest lane_merge_matches_sequential_drain;
    Alcotest.test_case "sink: late-bound port" `Quick sink_port_taps_late;
    Alcotest.test_case "export: valid trace_event" `Quick export_valid_trace;
    Alcotest.test_case "export: rejects malformed" `Quick export_rejects_garbage;
    Alcotest.test_case "export: metrics schema" `Quick export_metrics_schema;
    Alcotest.test_case "export: non-finite metrics stay valid JSON" `Quick
      export_non_finite_metrics;
    Alcotest.test_case "trace: deterministic across jobs" `Slow
      trace_deterministic_across_jobs;
    Alcotest.test_case "trace: observation does not perturb" `Slow
      unsubscribed_run_matches_baseline;
    Alcotest.test_case "obs: spans on the executing lane's clock" `Slow
      observed_spans_use_executing_lane_clock;
  ]
