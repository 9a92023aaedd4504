(* Tests for the observability layer: metric registry semantics (including
   the qcheck'd histogram-merge algebra), the span recorder, the
   trace_event/metrics exporters, and end-to-end trace determinism across
   pool parallelism levels. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_instruments_interned () =
  let m = Obs.Metrics.create () in
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
  let m = Obs.Metrics.create () in
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

let metrics_null_is_inert () =
  let c = Obs.Metrics.counter Obs.Metrics.null "c" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  check int "dead counter stays 0" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.observe (Obs.Metrics.histogram Obs.Metrics.null "h") 1.0;
  Obs.Metrics.set (Obs.Metrics.gauge Obs.Metrics.null "g") 1.0;
  let s = Obs.Metrics.snapshot Obs.Metrics.null in
  check bool "null snapshot empty" true
    (s.Obs.Metrics.counters = [] && s.Obs.Metrics.gauges = []
    && s.Obs.Metrics.histograms = [])

let snapshot_of_values values =
  let m = Obs.Metrics.create () in
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
  let t = Obs.Span.create ~now:(fun () -> !clock) () in
  let span = Obs.Span.start t ~cat:"c" ~tid:3 "work" in
  clock := 5.0;
  Obs.Span.instant t ~tid:3 "tick";
  clock := 9.0;
  Obs.Span.finish t ~args:[ ("k", "v") ] span;
  match Obs.Span.events t with
  | [ Obs.Span.Instant { name = "tick"; ts = 5.0; _ };
      Obs.Span.Complete { name = "work"; ts = 0.0; dur = 9.0; args = [ ("k", "v") ]; _ } ] ->
      check int "event_count" 2 (Obs.Span.event_count t)
  | events -> Alcotest.failf "unexpected events (%d)" (List.length events)

let span_disabled_records_nothing () =
  let t = Obs.Span.null in
  let span = Obs.Span.start t "work" in
  Obs.Span.finish t span;
  Obs.Span.instant t "tick";
  Obs.Span.counter_sample t ~value:1.0 "c";
  check int "no events" 0 (Obs.Span.event_count t)

let sink_port_taps_late () =
  let port = Obs.Sink.port () in
  check bool "untapped" true (Obs.Sink.tap port = None);
  let sink = Obs.Sink.create ~now:(fun () -> 0.0) () in
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
  let t = Obs.Span.create ~now:(fun () -> !clock) () in
  Obs.Span.thread_name t ~tid:0 "site 0";
  let span = Obs.Span.start t ~cat:"net" "hop \"quoted\"\n" in
  clock := 1.5;
  Obs.Span.finish t span;
  Obs.Span.instant t ~args:[ ("why", "test") ] "drop";
  Obs.Span.counter_sample t ~value:3.0 "depth";
  let buf = Buffer.create 256 in
  Obs.Export.trace_json buf [ ("sys", t) ];
  let json = Buffer.contents buf in
  match Obs.Export.validate_trace json with
  | Ok events ->
      (* 4 recorded + process_name metadata *)
      check int "events" 5 events
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
  let m = Obs.Metrics.create () in
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
  let builders =
    [
      ( "samya",
        fun () ->
          Harness.Systems.samya ~seed:3L ~config:Samya.Config.default ~regions
            ~entity ~maximum:500 () );
      ("multipaxsys", fun () -> Harness.Systems.multipaxsys ~seed:3L ~entity ~maximum:500 ());
    ]
  in
  let capture () =
    let recorders =
      Harness.Pool.map
        (fun (label, build) ->
          let t_system = build () in
          let sink =
            Obs.Sink.create ~now:t_system.Harness.Systems.lane_now ()
          in
          t_system.Harness.Systems.subscribe sink;
          let spec =
            {
              (Harness.Driver.default_spec ~client_regions:regions ~requests
                 ~duration_ms)
              with
              Harness.Driver.obs = Some sink;
            }
          in
          ignore (Harness.Driver.run ~t_system spec);
          (label, sink))
        builders
    in
    let buf = Buffer.create (1 lsl 16) in
    Obs.Export.trace_json buf
      (List.map (fun (l, s) -> (l, s.Obs.Sink.spans)) recorders);
    let mbuf = Buffer.create 4096 in
    Obs.Export.metrics_json mbuf
      (List.map (fun (l, s) -> (l, s.Obs.Sink.metrics)) recorders);
    (Buffer.contents buf, Buffer.contents mbuf)
  in
  let trace1, metrics1 = with_jobs 1 capture in
  let trace2, metrics2 = with_jobs 2 capture in
  (match Obs.Export.validate_trace trace1 with
  | Ok events -> check bool "trace has events" true (events > 100)
  | Error reason -> Alcotest.failf "invalid trace: %s" reason);
  check string "trace byte-identical across jobs" trace1 trace2;
  check string "metrics byte-identical across jobs" metrics1 metrics2

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
      if observe then begin
        let sink =
          Obs.Sink.create ~now:t_system.Harness.Systems.lane_now ()
        in
        t_system.Harness.Systems.subscribe sink;
        { spec with Harness.Driver.obs = Some sink }
      end
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
        | Obs.Span.Complete { cat = "request"; tid; dur; _ } when tid >= 1000 ->
            Some dur
        | _ -> None)
      (Obs.Span.events sink.Obs.Sink.spans)
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
    Alcotest.test_case "metrics: null registry" `Quick metrics_null_is_inert;
    QCheck_alcotest.to_alcotest merge_commutative;
    QCheck_alcotest.to_alcotest merge_associative;
    QCheck_alcotest.to_alcotest merge_is_concat;
    Alcotest.test_case "span: records in order" `Quick span_records_in_order;
    Alcotest.test_case "span: disabled is inert" `Quick span_disabled_records_nothing;
    Alcotest.test_case "sink: late-bound port" `Quick sink_port_taps_late;
    Alcotest.test_case "export: valid trace_event" `Quick export_valid_trace;
    Alcotest.test_case "export: rejects malformed" `Quick export_rejects_garbage;
    Alcotest.test_case "export: metrics schema" `Quick export_metrics_schema;
    Alcotest.test_case "trace: deterministic across jobs" `Slow
      trace_deterministic_across_jobs;
    Alcotest.test_case "trace: observation does not perturb" `Slow
      unsubscribed_run_matches_baseline;
    Alcotest.test_case "obs: spans on the executing lane's clock" `Slow
      observed_spans_use_executing_lane_clock;
  ]
