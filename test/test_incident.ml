(* The always-on incident layer (DESIGN.md §16): flight-recorder ring
   and ordering semantics, the Misra-Gries merge algebra the per-lane
   windows rely on, the Zipfian error bound, the watchdog rules, and
   the end-to-end byte-identity of recorder dumps and incident lists at
   every --engine-jobs setting. *)

open Alcotest

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let recorder_sort_and_drain_invariance () =
  (* The same logical stream recorded into two recorders — one drained
     at arbitrary points, one never — must dump identically: [events]
     is a pure function of what was recorded, not of barrier timing. *)
  let a = Obs.Flight_recorder.create () in
  let b = Obs.Flight_recorder.create () in
  let feed t =
    Obs.Flight_recorder.record t ~lane:2 ~ts:10.0
      ~kind:Obs.Flight_recorder.Shed ~site:2 ~entity:"e" "admission";
    Obs.Flight_recorder.record t ~lane:0 ~ts:10.0
      ~kind:Obs.Flight_recorder.Protocol ~site:0 ~entity:"e" "decided";
    (* Same (ts, lane): kind rank must break the tie the same way
       regardless of recording order. *)
    Obs.Flight_recorder.record t ~lane:(-1) ~ts:14.0
      ~kind:Obs.Flight_recorder.Slo_breach ~entity:"p50" "breach";
    Obs.Flight_recorder.record t ~lane:(-1) ~ts:14.0
      ~kind:Obs.Flight_recorder.Fault "heal"
  in
  Obs.Flight_recorder.record a ~lane:2 ~ts:10.0
    ~kind:Obs.Flight_recorder.Shed ~site:2 ~entity:"e" "admission";
  Obs.Flight_recorder.drain a;
  Obs.Flight_recorder.record a ~lane:0 ~ts:10.0
    ~kind:Obs.Flight_recorder.Protocol ~site:0 ~entity:"e" "decided";
  Obs.Flight_recorder.record a ~lane:(-1) ~ts:14.0
    ~kind:Obs.Flight_recorder.Slo_breach ~entity:"p50" "breach";
  Obs.Flight_recorder.drain a;
  Obs.Flight_recorder.record a ~lane:(-1) ~ts:14.0
    ~kind:Obs.Flight_recorder.Fault "heal";
  feed b;
  let render t =
    String.concat "\n"
      (List.map Obs.Flight_recorder.line (Obs.Flight_recorder.events t))
  in
  check string "drain timing invisible" (render b) (render a);
  (* The Fault at t=14 must sort before the SLO breach at t=14 (kind
     rank), even though it was recorded later. *)
  let kinds =
    List.map
      (fun (e : Obs.Flight_recorder.event) -> e.Obs.Flight_recorder.kind)
      (Obs.Flight_recorder.events a)
  in
  check bool "fault sorts before slo at equal (ts, lane)" true
    (kinds
    = [
        Obs.Flight_recorder.Protocol;
        Obs.Flight_recorder.Shed;
        Obs.Flight_recorder.Fault;
        Obs.Flight_recorder.Slo_breach;
      ])

let recorder_ring_overflow () =
  let t = Obs.Flight_recorder.create ~lane_capacity:4 ~global_capacity:8 () in
  for i = 0 to 9 do
    Obs.Flight_recorder.record t ~lane:0 ~ts:(float_of_int i)
      ~kind:Obs.Flight_recorder.Note
      (Printf.sprintf "n%d" i)
  done;
  check int "recorded counts everything" 10 (Obs.Flight_recorder.recorded t);
  check int "oldest dropped" 6 (Obs.Flight_recorder.dropped t);
  let retained =
    List.map
      (fun (e : Obs.Flight_recorder.event) -> e.Obs.Flight_recorder.detail)
      (Obs.Flight_recorder.events t)
  in
  check (list string) "newest survive in order" [ "n6"; "n7"; "n8"; "n9" ]
    retained

let recorder_rejects_non_positive_capacity () =
  (* At 0 the first record would index an empty ring; below 0 it would
     fail inside Array.make. [create] refuses both, naming the value. *)
  let rejects what create =
    List.iter
      (fun n ->
        match create n with
        | _ -> failf "%s %d accepted" what n
        | exception Invalid_argument msg ->
            check bool
              (Printf.sprintf "%S names %d" msg n)
              true
              (String.ends_with ~suffix:(Printf.sprintf "(got %d)" n) msg))
      [ 0; -1 ]
  in
  rejects "lane_capacity" (fun lane_capacity ->
      Obs.Flight_recorder.create ~lane_capacity ());
  rejects "global_capacity" (fun global_capacity ->
      Obs.Flight_recorder.create ~global_capacity ())

let port_disarmed_is_noop () =
  let port = Obs.Flight_recorder.port () in
  check bool "disarmed tap" true (Obs.Flight_recorder.tap port = None);
  let recorder = Obs.Flight_recorder.create () in
  Obs.Flight_recorder.attach port { Obs.Flight_recorder.recorder; hot = None };
  (match Obs.Flight_recorder.tap port with
  | Some a ->
      check bool "armed tap yields the recorder" true
        (a.Obs.Flight_recorder.recorder == recorder)
  | None -> fail "armed port must tap");
  Obs.Flight_recorder.detach port;
  check bool "detached tap" true (Obs.Flight_recorder.tap port = None)

(* ------------------------------------------------------------------ *)
(* Heavy hitters: the merge algebra (qcheck) *)

let sketch_of ops =
  let t = Obs.Heavy_hitters.create ~k:3 () in
  List.iter
    (fun (key, count) ->
      Obs.Heavy_hitters.observe ~count t (Printf.sprintf "k%d" key))
    ops;
  t

let ops_gen =
  QCheck.(small_list (pair (int_bound 5) (int_range 1 20)))

let dump_eq a b = Obs.Heavy_hitters.dump a = Obs.Heavy_hitters.dump b

let merge_commutative =
  QCheck.Test.make ~name:"hh merge commutative" ~count:300
    QCheck.(pair ops_gen ops_gen)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      dump_eq (Obs.Heavy_hitters.merge a b) (Obs.Heavy_hitters.merge b a))

let merge_associative =
  QCheck.Test.make ~name:"hh merge associative" ~count:300
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      dump_eq
        (Obs.Heavy_hitters.merge (Obs.Heavy_hitters.merge a b) c)
        (Obs.Heavy_hitters.merge a (Obs.Heavy_hitters.merge b c)))

let merge_lossless_on_disjoint =
  QCheck.Test.make ~name:"hh merge lossless on disjoint keys" ~count:300
    QCheck.(pair ops_gen ops_gen)
    (fun (xs, ys) ->
      (* Disjoint alphabets: left keys a*, right keys b*. The pointwise
         merge must preserve both sides exactly — estimates unchanged,
         errors summed. *)
      let build prefix ops =
        let t = Obs.Heavy_hitters.create ~k:3 () in
        List.iter
          (fun (key, count) ->
            Obs.Heavy_hitters.observe ~count t
              (Printf.sprintf "%s%d" prefix key))
          ops;
        t
      in
      let a = build "a" xs and b = build "b" ys in
      let m = Obs.Heavy_hitters.merge a b in
      let preserved t =
        List.for_all
          (fun (key, est) -> Obs.Heavy_hitters.estimate m key = est)
          (Obs.Heavy_hitters.top t)
      in
      preserved a && preserved b
      && Obs.Heavy_hitters.error m
         = Obs.Heavy_hitters.error a + Obs.Heavy_hitters.error b
      && Obs.Heavy_hitters.total m
         = Obs.Heavy_hitters.total a + Obs.Heavy_hitters.total b)

let zipfian_error_bound () =
  (* A Zipf(0.99) stream over 500 keys through a k=16 sketch: every
     estimate obeys [estimate <= true <= estimate + error], and the
     sketch finds the true hottest key. *)
  let n_keys = 500 and samples = 30_000 in
  let zipf = Trace.Zipf.create n_keys in
  let rng = Des.Rng.stream 42L 7 in
  let exact = Hashtbl.create 64 in
  let sketch = Obs.Heavy_hitters.create ~k:16 () in
  for _ = 1 to samples do
    let key = Printf.sprintf "key%04d" (Trace.Zipf.sample zipf rng) in
    Hashtbl.replace exact key (1 + Option.value ~default:0 (Hashtbl.find_opt exact key));
    Obs.Heavy_hitters.observe sketch key
  done;
  let err = Obs.Heavy_hitters.error sketch in
  Hashtbl.iter
    (fun key true_count ->
      let est = Obs.Heavy_hitters.estimate sketch key in
      check bool (Printf.sprintf "%s: estimate below truth" key) true
        (est <= true_count);
      check bool (Printf.sprintf "%s: truth within error" key) true
        (true_count <= est + err))
    exact;
  (* A key never observed estimates 0 and is covered by the bound. *)
  check int "unseen key estimates zero" 0
    (Obs.Heavy_hitters.estimate sketch "never-observed");
  let true_top =
    Hashtbl.fold
      (fun key c (bk, bc) -> if c > bc then (key, c) else (bk, bc))
      exact ("", 0)
    |> fst
  in
  match Obs.Heavy_hitters.top ~n:1 sketch with
  | [ (sk, _) ] -> check string "sketch finds the true hottest key" true_top sk
  | _ -> fail "sketch tracked nothing"

let windowed_lane_independence () =
  (* The same timestamped stream fed through 1 lane and split across 3
     lanes must produce identical window views while the per-lane
     sketches stay within capacity (k >= distinct keys, so no
     compression): the pointwise merge is then exact and the worker
     layout invisible. *)
  let feed ~lanes w =
    for i = 0 to 999 do
      let key = Printf.sprintf "k%d" (i mod 7) in
      Obs.Heavy_hitters.Windowed.observe w ~lane:(i mod lanes)
        ~now_ms:(float_of_int i *. 10.0)
        key
    done
  in
  let one = Obs.Heavy_hitters.Windowed.create ~k:8 ~window_ms:2_000.0 () in
  let three = Obs.Heavy_hitters.Windowed.create ~k:8 ~window_ms:2_000.0 () in
  feed ~lanes:1 one;
  feed ~lanes:3 three;
  let view w =
    List.map
      (fun (start, sk) -> (start, Obs.Heavy_hitters.dump sk))
      (Obs.Heavy_hitters.Windowed.windows w)
  in
  check bool "windows equal across lane layouts" true (view one = view three);
  check bool "cumulative equal across lane layouts" true
    (Obs.Heavy_hitters.dump (Obs.Heavy_hitters.Windowed.cumulative one)
    = Obs.Heavy_hitters.dump (Obs.Heavy_hitters.Windowed.cumulative three))

let windowed_rejects_non_finite_window () =
  (* An infinite window passes a bare [> 0] check, then aligns every
     window start to [infinity *. 0.] = NaN. *)
  List.iter
    (fun window_ms ->
      check bool
        (Printf.sprintf "window_ms %g rejected" window_ms)
        true
        (match Obs.Heavy_hitters.Windowed.create ~k:4 ~window_ms () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ infinity; Float.nan; neg_infinity; 0.0; -1.0 ]

(* ------------------------------------------------------------------ *)
(* Watchdog *)

let record_seq recorder specs =
  List.iter
    (fun (ts, kind, entity, detail) ->
      Obs.Flight_recorder.record recorder ~lane:0 ~ts ~kind ~site:0 ~entity
        detail)
    specs

let watchdog_rules_fire () =
  let r = Obs.Flight_recorder.create () in
  record_seq r
    [
      (1_000.0, Obs.Flight_recorder.Breaker, "sale", "opened (trip 1)");
      (* Within the 5 s cooldown for (breaker-trip, sale): suppressed. *)
      (3_000.0, Obs.Flight_recorder.Breaker, "sale", "opened (trip 2)");
      (* Past the cooldown: fires again. *)
      (9_000.0, Obs.Flight_recorder.Breaker, "sale", "opened (trip 3)");
      (* Four switches inside 10 s on one entity: mechanism-flap. *)
      (10_000.0, Obs.Flight_recorder.Mech, "hot", "escrow>borrow");
      (12_000.0, Obs.Flight_recorder.Mech, "hot", "borrow>escrow");
      (14_000.0, Obs.Flight_recorder.Mech, "hot", "escrow>borrow");
      (16_000.0, Obs.Flight_recorder.Mech, "hot", "borrow>escrow");
      (20_000.0, Obs.Flight_recorder.Invariant, "sale", "leaked 3 tokens");
    ]
  (* A shed burst: 600 sheds within one second. *);
  for i = 0 to 599 do
    Obs.Flight_recorder.record r ~lane:1
      ~ts:(30_000.0 +. float_of_int i)
      ~kind:Obs.Flight_recorder.Shed ~site:1 ~entity:"sale" "admission"
  done;
  let incidents = Obs.Watchdog.detect (Obs.Flight_recorder.events r) in
  let by_rule = Obs.Watchdog.count_by_rule incidents in
  let count rule = Option.value ~default:0 (List.assoc_opt rule by_rule) in
  check int "breaker trips (cooldown suppressed one)" 2 (count "breaker-trip");
  check int "mechanism flap" 1 (count "mechanism-flap");
  check int "invariant violation" 1 (count "invariant-violation");
  check int "shed burst (cooldown bounds the storm)" 1 (count "shed-burst")

let bundle_names_breached_window () =
  (* An SLO breach is stamped at its window's end; the bundle must
     report the window that breached, not the one that starts there. *)
  let r = Obs.Flight_recorder.create () in
  let hot = Obs.Heavy_hitters.Windowed.create ~k:4 ~window_ms:2_000.0 () in
  Obs.Heavy_hitters.Windowed.observe hot ~lane:0 ~now_ms:500.0 "early";
  Obs.Heavy_hitters.Windowed.observe hot ~lane:0 ~now_ms:1_500.0 "early";
  Obs.Heavy_hitters.Windowed.observe hot ~lane:0 ~now_ms:2_500.0 "late";
  Obs.Flight_recorder.record r ~lane:(-1) ~ts:2_000.0
    ~kind:Obs.Flight_recorder.Slo_breach ~entity:"p50"
    "window [0 s, 2 s): 400.0 ms > target 250.0 ms";
  let events = Obs.Flight_recorder.events r in
  match Obs.Watchdog.detect events with
  | [ incident ] ->
      let b = Obs.Watchdog.bundle ~hot events incident in
      check (option (float 0.001)) "breached window start" (Some 0.0)
        b.Obs.Watchdog.b_hot_window;
      check (list (pair string int)) "hot keys of the breached window"
        [ ("early", 2) ] b.Obs.Watchdog.b_hot
  | incidents -> fail (Printf.sprintf "expected 1 incident, got %d" (List.length incidents))

(* ------------------------------------------------------------------ *)
(* Parallel lanes: each domain writes only its own lane *)

let parallel_lanes_lose_nothing () =
  (* The sharded DES runs lanes on parallel domains. Once the lane slots
     are reserved (as arming a cluster does), nothing a lane writes may
     touch shared state: every event and every observation is counted. *)
  let lanes = 4 and per_lane = 20_000 in
  let recorder = Obs.Flight_recorder.create () in
  let hot = Obs.Heavy_hitters.Windowed.create ~k:8 ~window_ms:100.0 () in
  Obs.Flight_recorder.reserve recorder ~lanes;
  Obs.Heavy_hitters.Windowed.reserve hot ~lanes;
  let write lane () =
    for i = 1 to per_lane do
      let ts = float_of_int i in
      Obs.Flight_recorder.record recorder ~lane ~ts
        ~kind:Obs.Flight_recorder.Note ~site:lane "tick";
      Obs.Heavy_hitters.Windowed.observe hot ~lane ~now_ms:ts
        (Printf.sprintf "key%d" (i mod 16))
    done
  in
  List.init lanes (fun lane -> Domain.spawn (write lane)) |> List.iter Domain.join;
  check int "recorded" (lanes * per_lane) (Obs.Flight_recorder.recorded recorder);
  check int "dropped" 0 (Obs.Flight_recorder.dropped recorder);
  check int "events retained" (lanes * per_lane)
    (List.length (Obs.Flight_recorder.events recorder));
  check int "sketch total" (lanes * per_lane)
    (Obs.Heavy_hitters.total (Obs.Heavy_hitters.Windowed.cumulative hot))

(* ------------------------------------------------------------------ *)
(* End to end: recorder dumps byte-identical at any --engine-jobs *)

let retrystorm_flight_recorder_identical () =
  let plan = Harness.Exp_retrystorm.plan ~quick:true in
  let arm = Harness.Scenario.arm plan "admission" in
  let snapshot engine_jobs =
    let c = Harness.Scenario.capture ~engine_jobs plan arm in
    let dump =
      String.concat "\n"
        (List.map Obs.Flight_recorder.line
           (Obs.Flight_recorder.events c.Harness.Scenario.flight))
    in
    let incidents =
      String.concat "\n"
        (List.map Obs.Watchdog.incident_line c.Harness.Scenario.incidents)
    in
    let hot =
      List.map
        (fun (start, sk) -> (start, Obs.Heavy_hitters.dump sk))
        (Obs.Heavy_hitters.Windowed.windows c.Harness.Scenario.hot)
    in
    (dump, incidents, hot)
  in
  let d1, i1, h1 = snapshot 1 in
  let d2, i2, h2 = snapshot 2 in
  let d4, i4, h4 = snapshot 4 in
  check string "recorder dump: jobs 1 = jobs 2" d1 d2;
  check string "recorder dump: jobs 1 = jobs 4" d1 d4;
  check string "incidents: jobs 1 = jobs 2" i1 i2;
  check string "incidents: jobs 1 = jobs 4" i1 i4;
  check bool "hot windows: jobs 1 = jobs 2" true (h1 = h2);
  check bool "hot windows: jobs 1 = jobs 4" true (h1 = h4);
  (* The scenario's own acceptance story: the incident list names the
     tripped breaker and the breaching SLO window. *)
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check bool "a breaker trip is on the record" true
    (contains ~needle:"breaker-trip" i1);
  check bool "an slo breach is on the record" true
    (contains ~needle:"slo-breach" i1)

let suite =
  let qcheck = QCheck_alcotest.to_alcotest in
  [
    test_case "recorder: sort and drain invariance" `Quick
      recorder_sort_and_drain_invariance;
    test_case "recorder: ring overflow drops oldest" `Quick
      recorder_ring_overflow;
    test_case "recorder: port arm/disarm" `Quick port_disarmed_is_noop;
    test_case "recorder: rejects non-positive capacity" `Quick
      recorder_rejects_non_positive_capacity;
    qcheck merge_commutative;
    qcheck merge_associative;
    qcheck merge_lossless_on_disjoint;
    test_case "hh: zipfian error bound" `Quick zipfian_error_bound;
    test_case "hh: windowed lane independence" `Quick
      windowed_lane_independence;
    test_case "hh: windowed rejects non-finite window" `Quick
      windowed_rejects_non_finite_window;
    test_case "recorder + hh: parallel lanes lose nothing" `Quick
      parallel_lanes_lose_nothing;
    test_case "watchdog: rules fire with cooldown" `Quick watchdog_rules_fire;
    test_case "watchdog: bundle names breached window" `Quick
      bundle_names_breached_window;
    test_case "retrystorm: flight recorder byte-identical" `Slow
      retrystorm_flight_recorder_identical;
  ]
