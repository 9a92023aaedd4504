(* The always-on incident layer (DESIGN.md §16): flight-recorder
   ordering semantics and arming, the Misra-Gries merge algebra the per-lane
   windows rely on, the Zipfian error bound, the watchdog rules, and
   the end-to-end byte-identity of recorder dumps and incident lists at
   every --engine-jobs setting. *)

open Alcotest

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let recorder_sort_invariance () =
  (* The same events recorded in two orders that differ only between
     distinct (ts, lane, kind rank) keys must dump identically. *)
  let record t (lane, ts, kind, site, entity, detail) =
    Obs.Flight_recorder.record t ~lane ~ts ~kind ~site ~entity detail
  in
  let shed = (2, 10.0, Obs.Flight_recorder.Shed, 2, "e", "admission")
  and decided = (0, 10.0, Obs.Flight_recorder.Protocol, 0, "e", "decided")
  and breach = (-1, 14.0, Obs.Flight_recorder.Slo_breach, -1, "p50", "breach")
  and heal = (-1, 14.0, Obs.Flight_recorder.Fault, -1, "", "heal") in
  let a = Obs.Flight_recorder.create () in
  let b = Obs.Flight_recorder.create () in
  List.iter (record a) [ shed; decided; breach; heal ];
  List.iter (record b) [ heal; breach; decided; shed ];
  let render t =
    String.concat "\n"
      (List.map Obs.Flight_recorder.line (Obs.Flight_recorder.events t))
  in
  check string "record order of distinct keys invisible" (render b) (render a);
  (* The Fault at t=14 must sort before the SLO breach at t=14 (kind
     rank), even though [a] recorded it later. *)
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

(* A recorder bound to a real shard's lanes, as arming a cluster binds
   it. *)
let shard_clock shard =
  {
    Obs.Lane_log.lanes = Des.Shard.lanes shard;
    lane = Des.Shard.executing_lane;
    epoch = (fun () -> Des.Shard.epoch shard);
    now =
      (fun lane ->
        if lane < 0 then Des.Shard.now shard
        else Des.Engine.now (Des.Shard.engine shard lane));
  }

let recorder_equal_keys_keep_record_order () =
  (* Three events share (ts, lane, kind): lane 1 writes the first inside
     a window, a barrier-aligned global writes the second between
     windows (lane -1's buffer), lane 1 writes the third in a later
     window. The dump keeps the order they ran in, at any worker count. *)
  let dump workers =
    let shard = Des.Shard.create ~workers ~lanes:2 ~lookahead_ms:1.0 () in
    let recorder = Obs.Flight_recorder.create () in
    Obs.Flight_recorder.bind recorder (shard_clock shard);
    let shed detail () =
      Obs.Flight_recorder.record recorder ~lane:1 ~ts:5.0
        ~kind:Obs.Flight_recorder.Shed ~site:1 ~entity:"e" detail
    in
    let lane1 = Des.Shard.engine shard 1 in
    Des.Engine.schedule_at lane1 ~time_ms:1.0 (shed "first");
    Des.Shard.schedule_global shard ~time_ms:3.0 (shed "second");
    Des.Engine.schedule_at lane1 ~time_ms:4.0 (shed "third");
    Des.Shard.run shard ~until_ms:10.0;
    List.map
      (fun (e : Obs.Flight_recorder.event) -> e.Obs.Flight_recorder.detail)
      (Obs.Flight_recorder.events recorder)
  in
  check (list string) "record order" [ "first"; "second"; "third" ] (dump 1);
  check (list string) "same at two workers" (dump 1) (dump 2);
  let used = Obs.Flight_recorder.create () in
  Obs.Flight_recorder.record used ~lane:0 ~ts:0.0 ~kind:Obs.Flight_recorder.Note "x";
  match
    Obs.Flight_recorder.bind used
      (shard_clock (Des.Shard.create ~lanes:1 ~lookahead_ms:1.0 ()))
  with
  | () -> fail "bind accepted a recorder that holds events"
  | exception Invalid_argument _ -> ()

let port_disarmed_is_noop () =
  let port = Obs.Sink.port () in
  check bool "disarmed" true (Obs.Sink.flight port = None);
  let recorder = Obs.Flight_recorder.create () in
  Obs.Sink.arm port { Obs.Flight_recorder.recorder; hot = None };
  (match Obs.Sink.flight port with
  | Some a ->
      check bool "armed port yields the recorder" true
        (a.Obs.Flight_recorder.recorder == recorder)
  | None -> fail "armed port must yield the attachment");
  check bool "arming attaches no sink" true (Obs.Sink.tap port = None);
  Obs.Sink.disarm port;
  check bool "disarmed again" true (Obs.Sink.flight port = None)

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

(* The Misra-Gries sketch as a generic [Hashtbl], kept as the reference
   the flat-array sketch is checked against: every read, including merged
   sketches that track more than [k] keys and are observed again, must
   agree with it. *)
module Hh_ref = struct
  type t = {
    k : int;
    counts : (string, int ref) Hashtbl.t;
    mutable decrements : int;
    mutable total : int;
  }

  let create ~k = { k; counts = Hashtbl.create (2 * k); decrements = 0; total = 0 }

  let copy t =
    let counts = Hashtbl.create (2 * t.k) in
    Hashtbl.iter (fun key r -> Hashtbl.add counts key (ref !r)) t.counts;
    { t with counts }

  let observe ~count t key =
    if count > 0 then begin
      t.total <- t.total + count;
      match Hashtbl.find_opt t.counts key with
      | Some r -> r := !r + count
      | None ->
          if Hashtbl.length t.counts < t.k then Hashtbl.add t.counts key (ref count)
          else begin
            let d = min count (Hashtbl.fold (fun _ r acc -> min !r acc) t.counts max_int) in
            let zeroed = ref [] in
            Hashtbl.iter
              (fun key r ->
                r := !r - d;
                if !r = 0 then zeroed := key :: !zeroed)
              t.counts;
            List.iter (Hashtbl.remove t.counts) !zeroed;
            t.decrements <- t.decrements + d;
            if count > d then Hashtbl.add t.counts key (ref (count - d))
          end
    end

  let merge a b =
    let m = copy a in
    Hashtbl.iter
      (fun key r ->
        match Hashtbl.find_opt m.counts key with
        | Some r' -> r' := !r' + !r
        | None -> Hashtbl.add m.counts key (ref !r))
      b.counts;
    { m with k = max a.k b.k; decrements = a.decrements + b.decrements; total = a.total + b.total }

  let estimate t key = match Hashtbl.find_opt t.counts key with Some r -> !r | None -> 0

  let top t =
    Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.counts []
    |> List.sort (fun (ka, ca) (kb, cb) ->
           if ca <> cb then compare cb ca else String.compare ka kb)

end

(* Two streams into sketches of random [k], merged, then a third stream
   into the merged sketch. [count] 0 is fed too (it must be ignored). *)
let hh_matches_reference =
  let stream = QCheck.(small_list (pair (int_bound 11) (int_range 0 9))) in
  QCheck.Test.make ~name:"hh: flat sketch matches a Hashtbl reference" ~count:500
    QCheck.(quad (int_range 1 6) stream stream stream)
    (fun (k, xs, ys, zs) ->
      let module H = Obs.Heavy_hitters in
      let name key = Printf.sprintf "k%d" key in
      let feed (t, r) ops =
        List.iter
          (fun (key, count) ->
            H.observe ~count t (name key);
            Hh_ref.observe ~count r (name key))
          ops
      in
      let fresh k = (H.create ~k (), Hh_ref.create ~k) in
      let agree (t, (r : Hh_ref.t)) =
        H.dump t = (r.k, r.decrements, r.total, Hh_ref.top r)
        && H.error t = r.decrements
        && H.total t = r.total
        && H.tracked t = Hashtbl.length r.counts
        && H.top ~n:2 t = List.filteri (fun i _ -> i < 2) (Hh_ref.top r)
        && List.for_all
             (fun key -> H.estimate t (name key) = Hh_ref.estimate r (name key))
             (List.init 13 Fun.id)
      in
      let a = fresh k and b = fresh (k + 1) in
      feed a xs;
      feed b ys;
      let m = (H.merge (fst a) (fst b), Hh_ref.merge (snd a) (snd b)) in
      let ok = agree a && agree b && agree m in
      feed m zs;
      ok && agree m && agree a && agree b)

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

let hh_observe_allocates_nothing () =
  (* Once a k=16 sketch is full, 10k tracked hits and 10k untracked
     arrivals (each a decrement round, some zeroing keys that later
     arrivals re-track) write in place: only the two [Gc.minor_words]
     readings themselves allocate. *)
  let module H = Obs.Heavy_hitters in
  let keys = Array.init 64 (Printf.sprintf "key%02d") in
  let sketch = H.create ~k:16 () in
  Array.iteri (fun i key -> if i < 16 then H.observe sketch key) keys;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    H.observe sketch keys.(i land 15);
    H.observe sketch keys.(16 + (i mod 48))
  done;
  let words = Gc.minor_words () -. before in
  check bool (Printf.sprintf "observe allocates nothing (%.0f minor words)" words) true
    (words <= 16.0);
  check bool "the stream made decrement rounds" true (H.error sketch > 0)

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

let windowed_rejects_non_positive_k () =
  (* Each lane builds its sketch on its first observation, so a bad [k]
     must be refused by [create], not inside a lane's window. Both
     messages name the value. *)
  let rejects what create =
    List.iter
      (fun k ->
        match create k with
        | _ -> failf "%s accepted k = %d" what k
        | exception Invalid_argument msg ->
            check bool
              (Printf.sprintf "%S names %d" msg k)
              true
              (String.ends_with ~suffix:(Printf.sprintf "(got %d)" k) msg))
      [ 0; -3 ]
  in
  rejects "Windowed.create" (fun k ->
      ignore (Obs.Heavy_hitters.Windowed.create ~k ~window_ms:1_000.0 ()));
  rejects "Heavy_hitters.create" (fun k -> ignore (Obs.Heavy_hitters.create ~k ()))

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

(* The windowed rules as first written: every Mech/Shed event rebuilds
   its key's window with a list filter and counts it. [detect] must give
   exactly the same incidents. *)
let reference_detect (spec : Obs.Watchdog.spec) events =
  let cooldown = Hashtbl.create 16 in
  let windows = Hashtbl.create 16 in
  let incidents = ref [] in
  let fire ~rule ~key (ev : Obs.Flight_recorder.event) reason =
    let ck = (Obs.Watchdog.rule_name rule, key) in
    let ok =
      match Hashtbl.find_opt cooldown ck with
      | Some last -> ev.ts -. last > spec.cooldown_ms
      | None -> true
    in
    if ok then begin
      Hashtbl.replace cooldown ck ev.ts;
      incidents :=
        {
          Obs.Watchdog.i_rule = Obs.Watchdog.rule_name rule;
          i_ts = ev.ts;
          i_site = ev.site;
          i_entity = ev.entity;
          i_reason = reason;
        }
        :: !incidents
    end
  in
  let slide table key ~ts ~within_ms =
    let window =
      ts
      :: List.filter
           (fun t -> ts -. t <= within_ms)
           (Option.value ~default:[] (Hashtbl.find_opt windows (table, key)))
    in
    Hashtbl.replace windows (table, key) window;
    List.length window
  in
  List.iter
    (fun (ev : Obs.Flight_recorder.event) ->
      List.iter
        (fun rule ->
          match (rule, ev.kind) with
          | Obs.Watchdog.Mechanism_flap { switches; within_ms }, Obs.Flight_recorder.Mech
            ->
              let n = slide `Flap ev.entity ~ts:ev.ts ~within_ms in
              if n >= switches then begin
                Hashtbl.replace windows (`Flap, ev.entity) [];
                fire ~rule ~key:ev.entity ev
                  (Printf.sprintf "%d mechanism switches within %.0f ms (last: %s)" n
                     within_ms ev.detail)
              end
          | Obs.Watchdog.Shed_burst { sheds; within_ms }, Obs.Flight_recorder.Shed ->
              let n = slide `Burst "" ~ts:ev.ts ~within_ms in
              if n >= sheds then begin
                Hashtbl.replace windows (`Burst, "") [];
                fire ~rule ~key:"" ev
                  (Printf.sprintf "%d requests shed within %.0f ms (last: %s)" n
                     within_ms ev.detail)
              end
          | _ -> ())
        spec.rules)
    events;
  List.rev !incidents

let watchdog_matches_list_definition =
  (* Sorted Mech/Shed streams over two entities. Gaps of 0 repeat a
     stamp; gaps that sum to exactly [within_ms] sit on the window's
     closed edge; small thresholds make the reset after a fire and the
     cooldown bite often. *)
  let gaps = [| 0.0; 2.5; 5.0; 10.0; 12.5; 30.0 |] in
  let gen =
    QCheck.(
      pair
        (quad (int_range 1 4) (int_range 1 5) (int_range 0 1) (int_range 0 2))
        (small_list (triple (int_bound 5) bool bool)))
  in
  QCheck.Test.make ~name:"watchdog: windowed rules match list definition" ~count:500
    gen (fun ((switches, sheds, within, cool), steps) ->
      let within_ms = [| 5.0; 10.0 |].(within) in
      let spec =
        {
          Obs.Watchdog.rules =
            [
              Obs.Watchdog.Mechanism_flap { switches; within_ms };
              Obs.Watchdog.Shed_burst { sheds; within_ms };
            ];
          cooldown_ms = [| 0.0; 10.0; 25.0 |].(cool);
        }
      in
      let ts = ref 0.0 in
      let events =
        List.map
          (fun (gap, mech, hot) ->
            ts := !ts +. gaps.(gap);
            {
              Obs.Flight_recorder.lane = 0;
              ts = !ts;
              kind = (if mech then Obs.Flight_recorder.Mech else Obs.Flight_recorder.Shed);
              site = 0;
              entity = (if hot then "hot" else "cold");
              detail = "x";
            })
          steps
      in
      Obs.Watchdog.detect ~spec events = reference_detect spec events)

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
  (* The sharded DES runs lanes on parallel domains. Once the recorder is
     bound to the lanes' clock and the sketch's slots are reserved (as
     arming a cluster does), nothing a lane writes may touch shared
     state: every event and every observation is counted. Here each
     domain is one lane. *)
  let lanes = 4 and per_lane = 20_000 in
  let executing = Domain.DLS.new_key (fun () -> -1) in
  let recorder = Obs.Flight_recorder.create () in
  Obs.Flight_recorder.bind recorder
    {
      Obs.Lane_log.lanes;
      lane = (fun () -> Domain.DLS.get executing);
      epoch = (fun () -> 0);
      now = (fun _ -> 0.0);
    };
  let hot = Obs.Heavy_hitters.Windowed.create ~k:8 ~window_ms:100.0 () in
  Obs.Heavy_hitters.Windowed.reserve hot ~lanes;
  let write lane () =
    Domain.DLS.set executing lane;
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

(* ------------------------------------------------------------------ *)
(* Run report: one document, two formats *)

(* Section titles and table cells in document order, as plain text. *)
type outline = { titles : string list; cells : string list }

let markdown_outline doc =
  let unpipe = Str.global_replace (Str.regexp_string "\\|") "|" in
  let _, titles, cells =
    List.fold_left
      (fun (fenced, titles, cells) line ->
        let starts prefix = String.starts_with ~prefix line in
        if starts "```" then (not fenced, titles, cells)
        else if fenced then (fenced, titles, cells)
        else if starts "#" then
          let title = String.trim (String.concat "" (String.split_on_char '#' line)) in
          (fenced, Str.global_replace (Str.regexp_string "**") "" title :: titles, cells)
        else if starts "| " then
          let inner = String.sub line 2 (String.length line - 4) in
          let row = List.map unpipe (Str.split_delim (Str.regexp_string " | ") inner) in
          (fenced, titles, List.rev_append row cells)
        else (fenced, titles, cells))
      (false, [], []) (String.split_on_char '\n' doc)
  in
  { titles = List.rev titles; cells = List.rev cells }

let html_outline doc =
  let unescape s =
    List.fold_left
      (fun s (entity, ch) -> Str.global_replace (Str.regexp_string entity) ch s)
      s
      [ ("&lt;", "<"); ("&gt;", ">"); ("&quot;", "\""); ("&amp;", "&") ]
  in
  let text t = unescape (Str.global_replace (Str.regexp "<[^>]*>") "" t) in
  let _, titles, cells =
    List.fold_left
      (fun (inside, titles, cells) piece ->
        match (piece, inside) with
        | Str.Delim d, _ -> ((if d.[1] = '/' then None else Some d.[1]), titles, cells)
        | Str.Text t, Some 'h' -> (inside, text t :: titles, cells)
        | Str.Text t, Some 't' -> (inside, titles, text t :: cells)
        | Str.Text _, _ -> (inside, titles, cells))
      (None, [], [])
      (Str.full_split (Str.regexp "</?h[1-3]>\\|</?t[hd]>") doc)
  in
  { titles = List.rev titles; cells = List.rev cells }

let report_formats_agree () =
  (* Both backends fold one document: a section or a table added to one
     format only fails here. *)
  let plan = Harness.Exp_retrystorm.plan ~quick:true in
  let c = Harness.Scenario.capture plan (Harness.Scenario.arm plan "admission") in
  let meta =
    { Harness.Run_report.experiment = "retrystorm"; quick = true; seed = Harness.Exp_common.seed }
  in
  let md = markdown_outline (Harness.Run_report.markdown meta [ c ]) in
  let html = html_outline (Harness.Run_report.html meta [ c ]) in
  check bool "sections found" true (List.mem "Outcome" md.titles && List.length md.titles > 6);
  check bool "cells found" true (List.mem "committed" md.cells);
  check (list string) "same section titles, same order" md.titles html.titles;
  check (list string) "same table cells, same order" md.cells html.cells

let suite =
  let qcheck = QCheck_alcotest.to_alcotest in
  [
    test_case "recorder: sort invariance" `Quick recorder_sort_invariance;
    test_case "recorder: equal keys keep record order" `Quick
      recorder_equal_keys_keep_record_order;
    test_case "recorder: port arm/disarm" `Quick port_disarmed_is_noop;
    qcheck merge_commutative;
    qcheck merge_associative;
    qcheck merge_lossless_on_disjoint;
    test_case "hh: zipfian error bound" `Quick zipfian_error_bound;
    qcheck hh_matches_reference;
    test_case "hh: observe allocates nothing" `Quick hh_observe_allocates_nothing;
    test_case "hh: windowed lane independence" `Quick
      windowed_lane_independence;
    test_case "hh: windowed rejects non-finite window" `Quick
      windowed_rejects_non_finite_window;
    test_case "hh: windowed rejects non-positive k" `Quick
      windowed_rejects_non_positive_k;
    test_case "recorder + hh: parallel lanes lose nothing" `Quick
      parallel_lanes_lose_nothing;
    test_case "watchdog: rules fire with cooldown" `Quick watchdog_rules_fire;
    qcheck watchdog_matches_list_definition;
    test_case "watchdog: bundle names breached window" `Quick
      bundle_names_breached_window;
    test_case "retrystorm: flight recorder byte-identical" `Slow
      retrystorm_flight_recorder_identical;
    test_case "run report: markdown and HTML carry one document" `Quick
      report_formats_agree;
  ]
