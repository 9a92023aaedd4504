(* Tests for the discrete-event simulation engine: deterministic RNG,
   heap ordering, event scheduling and timers. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng *)

let rng_deterministic () =
  let a = Des.Rng.create 42L and b = Des.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Des.Rng.bits64 a) (Des.Rng.bits64 b)
  done

let rng_copy_independent () =
  let a = Des.Rng.create 7L in
  ignore (Des.Rng.bits64 a);
  let b = Des.Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Des.Rng.bits64 a) (Des.Rng.bits64 b)

let rng_split_diverges () =
  let a = Des.Rng.create 7L in
  let b = Des.Rng.split a in
  let xs = List.init 20 (fun _ -> Des.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Des.Rng.bits64 b) in
  check bool "split streams differ" true (xs <> ys)

let rng_int_bounds () =
  let rng = Des.Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Des.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Des.Rng.int rng 0))

let rng_float_bounds () =
  let rng = Des.Rng.create 2L in
  for _ = 1 to 10_000 do
    let v = Des.Rng.float rng 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of range: %f" v
  done

let rng_gaussian_moments () =
  let rng = Des.Rng.create 3L in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Des.Rng.gaussian rng ~mean:5.0 ~std:2.0 in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check bool "mean close to 5" true (Float.abs (mean -. 5.0) < 0.05);
  check bool "variance close to 4" true (Float.abs (var -. 4.0) < 0.15)

let rng_exponential_mean () =
  let rng = Des.Rng.create 4L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Des.Rng.exponential rng ~rate:2.0
  done;
  check bool "mean close to 1/rate" true (Float.abs ((!sum /. float_of_int n) -. 0.5) < 0.02)

let rng_bool_probability () =
  let rng = Des.Rng.create 5L in
  let hits = ref 0 in
  for _ = 1 to 20_000 do
    if Des.Rng.bool rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 20_000.0 in
  check bool "bernoulli rate" true (Float.abs (p -. 0.3) < 0.02)

let rng_shuffle_permutes () =
  let rng = Des.Rng.create 6L in
  let a = Array.init 50 (fun i -> i) in
  Des.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "is a permutation" true (sorted = Array.init 50 (fun i -> i));
  check bool "actually shuffled" true (a <> Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Pheap *)

let pheap_ordering () =
  let h = Des.Pheap.create ~dummy:0 () in
  let rng = Des.Rng.create 11L in
  for i = 0 to 999 do
    Des.Pheap.push h ~priority:(Des.Rng.float rng 100.0) i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Des.Pheap.pop h with
    | None -> ()
    | Some (key, _) ->
        check bool "non-decreasing" true (key >= !last);
        last := key;
        incr count;
        drain ()
  in
  drain ();
  check int "popped all" 1000 !count

let pheap_fifo_ties () =
  let h = Des.Pheap.create ~dummy:0 () in
  List.iter (fun v -> Des.Pheap.push h ~priority:1.0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match Des.Pheap.pop h with Some (_, v) -> v | None -> -1) in
  check (Alcotest.list int) "insertion order on equal keys" [ 1; 2; 3; 4 ] order

let pheap_property =
  QCheck.Test.make ~count:200 ~name:"pheap pops in sorted order"
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let h = Des.Pheap.create ~dummy:() () in
      List.iter (fun k -> Des.Pheap.push h ~priority:k ()) keys;
      let rec drain acc =
        match Des.Pheap.pop h with None -> List.rev acc | Some (k, ()) -> drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

(* Model-based property: arbitrary interleavings of pushes (Some key) and
   pops (None) against a stable sorted-list model. Keys are drawn from a
   tiny domain so equal-priority ties are common, exercising the FIFO
   tie-break through every push/pop/sift path. Values are push sequence
   numbers, so FIFO violations are directly observable. *)
let pheap_interleaving_property =
  (* Insert before the first strictly-greater key: stable among equals. *)
  let rec model_insert entry model =
    match model with
    | [] -> [ entry ]
    | (key, _) :: _ when fst entry < key -> entry :: model
    | head :: rest -> head :: model_insert entry rest
  in
  QCheck.Test.make ~count:500
    ~name:"pheap: push/pop interleavings match stable sorted model"
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let h = Des.Pheap.create ~dummy:0 () in
      let model = ref [] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some k ->
              let key = float_of_int k in
              Des.Pheap.push h ~priority:key !next;
              model := model_insert (key, !next) !model;
              incr next
          | None -> (
              match (Des.Pheap.pop h, !model) with
              | None, [] -> ()
              | Some (key, value), (mkey, mvalue) :: rest ->
                  if key <> mkey || value <> mvalue then ok := false
                  else model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      (* Drain whatever is left and check it too. *)
      let rec drain () =
        match (Des.Pheap.pop h, !model) with
        | None, [] -> ()
        | Some (key, value), (mkey, mvalue) :: rest ->
            if key <> mkey || value <> mvalue then ok := false
            else begin
              model := rest;
              drain ()
            end
        | Some _, [] | None, _ :: _ -> ok := false
      in
      drain ();
      !ok && Des.Pheap.is_empty h)

(* Model-based property at scale: up to 5 000 operations, three pushes to
   every pop or drain, so the heap crosses its 16/32/.../2048 growth
   boundaries with pops interleaved. Keys come from 0..7, so ties are
   common; key 0 is rare and the drains take only key 0, so each drain
   removes a few entries and the heap keeps growing. Drain callbacks push
   re-entrantly. Payloads are distinct boxed values compared with [==], so
   a value handed back from the wrong slot is caught even between equal
   keys. The model is one FIFO queue per key: a stable sorted order. *)
type pheap_op = Push of int | Pop | Drain_below of int list | Drain_to of int list

let pheap_growth_property =
  let key = QCheck.Gen.(frequency [ (1, return 0); (7, int_range 1 7) ]) in
  let reentrant = QCheck.Gen.(list_size (int_bound 3) (int_bound 7)) in
  let op =
    QCheck.Gen.frequency
      [
        (12, QCheck.Gen.map (fun k -> Push k) key);
        (2, QCheck.Gen.return Pop);
        (1, QCheck.Gen.map (fun ks -> Drain_below ks) reentrant);
        (1, QCheck.Gen.map (fun ks -> Drain_to ks) reentrant);
      ]
  in
  QCheck.Test.make ~count:100
    ~name:"pheap: slot mapping survives growth (5k-op model)"
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_bound 5_000) op))
    (fun ops ->
      let h = Des.Pheap.create ~dummy:(ref (-1)) () in
      let model = Array.init 8 (fun _ -> Queue.create ()) in
      let live = ref 0 and next = ref 0 and ok = ref true in
      let push k =
        let payload = ref !next in
        incr next;
        incr live;
        Des.Pheap.push h ~priority:(float_of_int k) payload;
        Queue.push payload model.(k)
      in
      (* The heap handed out [(key, payload)]: it must be the model's next. *)
      let expect key payload =
        match Array.find_index (fun q -> not (Queue.is_empty q)) model with
        | None -> ok := false
        | Some k ->
            decr live;
            if float_of_int k <> key || Queue.pop model.(k) != payload then ok := false
      in
      let drain run ~limit ks =
        let pending = ref ks in
        run h ~limit (fun key payload ->
            expect key payload;
            match !pending with
            | k :: rest ->
                pending := rest;
                push k
            | [] -> ());
        if not (Queue.is_empty model.(0)) then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Push k -> push k
          | Pop -> (
              match Des.Pheap.pop h with
              | Some (key, payload) -> expect key payload
              | None -> if !live <> 0 then ok := false)
          | Drain_below ks -> drain Des.Pheap.drain_below ~limit:1.0 ks
          | Drain_to ks -> drain Des.Pheap.drain_to ~limit:0.0 ks);
          if Des.Pheap.length h <> !live then ok := false)
        ops;
      while not (Des.Pheap.is_empty h) do
        let key = Des.Pheap.min_key h in
        expect key (Des.Pheap.pop_unsafe h)
      done;
      !ok && !live = 0)

(* A popped value must not stay reachable from the heap: no stale copy in
   the unused tail of its arrays, none at the root position. The values
   are tracked through a weak array and drained by every pop path, and
   the major GC runs while the heap itself is still live. *)
let pheap_releases_popped () =
  let n = 1_000 in
  let h = Des.Pheap.create ~dummy:(ref (-1)) () in
  let weak = Weak.create n in
  let rng = Des.Rng.create 31L in
  for i = 0 to n - 1 do
    let value = ref i in
    Weak.set weak i (Some value);
    Des.Pheap.push h ~priority:(float_of_int (Des.Rng.int rng 40)) value
  done;
  for _ = 1 to 150 do
    ignore (Des.Pheap.pop h)
  done;
  for _ = 1 to 150 do
    ignore (Des.Pheap.pop_unsafe h)
  done;
  Des.Pheap.drain_below h ~limit:30.0 (fun _ _ -> ());
  Des.Pheap.drain_to h ~limit:40.0 (fun _ _ -> ());
  Gc.full_major ();
  check int "drained" 0 (Des.Pheap.length h);
  let reachable = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr reachable
  done;
  check int "popped values still reachable" 0 !reachable

let pheap_drain_below_and_to () =
  let h = Des.Pheap.create ~dummy:0 () in
  for i = 0 to 9 do
    Des.Pheap.push h ~priority:(float_of_int i) i
  done;
  let seen = ref [] in
  Des.Pheap.drain_below h ~limit:5.0 (fun key value ->
      seen := (key, value) :: !seen;
      (* A push below the limit during the drain joins the same pass. *)
      if value = 2 then Des.Pheap.push h ~priority:2.5 99);
  check bool "strictly-below drain includes the re-entrant push" true
    (List.rev !seen
    = [ (0.0, 0); (1.0, 1); (2.0, 2); (2.5, 99); (3.0, 3); (4.0, 4) ]);
  seen := [];
  Des.Pheap.drain_to h ~limit:7.0 (fun key value -> seen := (key, value) :: !seen);
  check bool "inclusive drain takes the limit key" true
    (List.rev !seen = [ (5.0, 5); (6.0, 6); (7.0, 7) ]);
  check int "rest stays queued" 2 (Des.Pheap.length h)

let pheap_pop_unsafe_matches_pop () =
  let h = Des.Pheap.create ~dummy:0 () in
  let rng = Des.Rng.create 23L in
  for i = 0 to 499 do
    Des.Pheap.push h ~priority:(float_of_int (Des.Rng.int rng 10)) i
  done;
  let previous_key = ref neg_infinity in
  let count = ref 0 in
  while not (Des.Pheap.is_empty h) do
    let key = Des.Pheap.min_key h in
    ignore (Des.Pheap.pop_unsafe h);
    check bool "min_key non-decreasing" true (key >= !previous_key);
    previous_key := key;
    incr count
  done;
  check int "drained all" 500 !count

(* ------------------------------------------------------------------ *)
(* Engine *)

let engine_runs_in_time_order () =
  let engine = Des.Engine.create () in
  let log = ref [] in
  Des.Engine.schedule engine ~delay_ms:30.0 (fun () -> log := 3 :: !log);
  Des.Engine.schedule engine ~delay_ms:10.0 (fun () -> log := 1 :: !log);
  Des.Engine.schedule engine ~delay_ms:20.0 (fun () -> log := 2 :: !log);
  Des.Engine.run engine;
  check (Alcotest.list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check bool "clock advanced" true (Des.Engine.now engine >= 30.0)

let engine_simultaneous_fifo () =
  let engine = Des.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Des.Engine.schedule engine ~delay_ms:5.0 (fun () -> log := i :: !log)
  done;
  Des.Engine.run engine;
  check (Alcotest.list int) "fifo for equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let engine_nested_scheduling () =
  let engine = Des.Engine.create () in
  let fired = ref 0 in
  Des.Engine.schedule engine ~delay_ms:1.0 (fun () ->
      Des.Engine.schedule engine ~delay_ms:1.0 (fun () ->
          Des.Engine.schedule engine ~delay_ms:1.0 (fun () -> fired := 3)));
  Des.Engine.run engine;
  check int "chain completed" 3 !fired;
  check bool "time is 3ms" true (Float.abs (Des.Engine.now engine -. 3.0) < 1e-9)

let engine_run_until () =
  let engine = Des.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Des.Engine.schedule engine ~delay_ms:d (fun () -> fired := d :: !fired))
    [ 5.0; 15.0; 25.0 ];
  Des.Engine.run engine ~until_ms:16.0;
  check int "two fired" 2 (List.length !fired);
  check bool "clock clamped to limit" true (Des.Engine.now engine = 16.0);
  Des.Engine.run engine;
  check int "last fires later" 3 (List.length !fired)

let engine_cancel_timer () =
  let engine = Des.Engine.create () in
  let fired = ref false in
  let timer = Des.Engine.timer engine ~delay_ms:10.0 (fun () -> fired := true) in
  Des.Engine.schedule engine ~delay_ms:5.0 (fun () -> Des.Engine.cancel timer);
  Des.Engine.run engine;
  check bool "cancelled timer did not fire" false !fired

let engine_timer_cancel_lifecycle () =
  let engine = Des.Engine.create () in
  let fired = ref [] in
  let armed = Des.Engine.timer engine ~delay_ms:5.0 (fun () -> fired := 1 :: !fired) in
  let cancelled = Des.Engine.timer engine ~delay_ms:10.0 (fun () -> fired := 2 :: !fired) in
  Des.Engine.cancel cancelled;
  Des.Engine.run engine;
  check (Alcotest.list int) "only the armed timer fired" [ 1 ] !fired;
  (* Cancelling after firing is harmless: nothing fires again, twice. *)
  Des.Engine.cancel armed;
  Des.Engine.cancel cancelled;
  Des.Engine.run engine;
  check (Alcotest.list int) "cancel after fire is a no-op" [ 1 ] !fired

let engine_negative_delay_clamped () =
  let engine = Des.Engine.create () in
  Des.Engine.schedule engine ~delay_ms:5.0 (fun () ->
      Des.Engine.schedule engine ~delay_ms:(-10.0) (fun () ->
          check bool "clock did not go backwards" true (Des.Engine.now engine >= 5.0)));
  Des.Engine.run engine

let engine_past_absolute_time_clamped () =
  let engine = Des.Engine.create () in
  Des.Engine.schedule engine ~delay_ms:10.0 (fun () ->
      Des.Engine.schedule_at engine ~time_ms:1.0 (fun () ->
          check bool "not in the past" true (Des.Engine.now engine >= 10.0)));
  Des.Engine.run engine

(* Minor words to arm 1k timers, then to drain them, with no tracer
   installed. The label is a literal, as at every call site in the
   library: its option is a static constant, not an allocation. *)
let timer_minor_words ~labelled =
  let engine = Des.Engine.create () in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    let delay_ms = float_of_int ((i * 7) mod 997) in
    ignore
      (if labelled then Des.Engine.timer ~label:"t" engine ~delay_ms (fun () -> ())
       else Des.Engine.timer engine ~delay_ms (fun () -> ()))
  done;
  let armed = Gc.minor_words () in
  Des.Engine.run_for engine 1_000.0;
  (armed -. before, Gc.minor_words () -. armed)

let engine_untraced_drain_no_extra_allocation () =
  (* Labelled timers exist for the observability layer; with no tracer
     installed, arming and draining them must allocate exactly as much as
     plain timers — the PR-1 hot-path budget must not regress when the
     obs layer is off. First rounds warm both paths. *)
  ignore (timer_minor_words ~labelled:false);
  ignore (timer_minor_words ~labelled:true);
  let plain_arm, plain_drain = timer_minor_words ~labelled:false in
  let labelled_arm, labelled_drain = timer_minor_words ~labelled:true in
  check bool
    (Printf.sprintf "labelled arm allocates no more (plain %.0f, labelled %.0f)"
       plain_arm labelled_arm)
    true
    (labelled_arm <= plain_arm +. 64.0);
  check bool
    (Printf.sprintf "labelled drain allocates no more (plain %.0f, labelled %.0f)"
       plain_drain labelled_drain)
    true
    (labelled_drain <= plain_drain +. 64.0)

(* ------------------------------------------------------------------ *)
(* Shard: region-sharded engines under conservative lookahead *)

let shard_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "rejects zero lanes" true
    (invalid (fun () -> Des.Shard.create ~lanes:0 ~lookahead_ms:1.0 ()));
  check bool "rejects zero lookahead" true
    (invalid (fun () -> Des.Shard.create ~lanes:2 ~lookahead_ms:0.0 ()));
  check bool "rejects nan lookahead" true
    (invalid (fun () -> Des.Shard.create ~lanes:2 ~lookahead_ms:Float.nan ()))

let shard_cross_lane_ping_pong () =
  let shard = Des.Shard.create ~lanes:2 ~lookahead_ms:10.0 () in
  check int "two lanes" 2 (Des.Shard.lanes shard);
  let log = ref [] in
  let rec ping lane time =
    log := (lane, time) :: !log;
    if time < 95.0 then
      Des.Shard.schedule_cross shard ~src:lane ~dst:(1 - lane)
        ~time_ms:(time +. 10.0)
        (fun () -> ping (1 - lane) (time +. 10.0))
  in
  Des.Shard.schedule_cross shard ~src:0 ~dst:0 ~time_ms:0.0 (fun () -> ping 0 0.0);
  Des.Shard.run shard ~until_ms:200.0;
  let expected = List.init 11 (fun i -> (i mod 2, float_of_int (10 * i))) in
  check bool "alternating cross-lane deliveries in time order" true
    (List.rev !log = expected);
  check bool "barrier clock ends at the limit" true (Des.Shard.now shard = 200.0)

let shard_horizon_guard () =
  (* The conservative-lookahead safety contract: a mid-window cross send
     below the window horizon would race a lane that may already have
     drained past it, so it must be rejected loudly, and globals may only
     be armed between windows. *)
  let shard = Des.Shard.create ~lanes:2 ~lookahead_ms:10.0 () in
  let cross_rejected = ref false and global_rejected = ref false in
  Des.Shard.schedule_cross shard ~src:0 ~dst:0 ~time_ms:5.0 (fun () ->
      (try Des.Shard.schedule_cross shard ~src:0 ~dst:1 ~time_ms:6.0 (fun () -> ())
       with Invalid_argument _ -> cross_rejected := true);
      (try Des.Shard.schedule_global shard ~time_ms:50.0 (fun () -> ())
       with Invalid_argument _ -> global_rejected := true));
  Des.Shard.run shard ~until_ms:100.0;
  check bool "below-horizon cross send rejected" true !cross_rejected;
  check bool "mid-window global rejected" true !global_rejected

let shard_global_barrier_aligns_clocks () =
  let shard = Des.Shard.create ~lanes:3 ~lookahead_ms:5.0 () in
  for lane = 0 to 2 do
    for k = 1 to 9 do
      Des.Shard.schedule_cross shard ~src:lane ~dst:lane
        ~time_ms:(float_of_int ((k * 7) + lane))
        (fun () -> ())
    done
  done;
  let observed = ref [] in
  Des.Shard.schedule_global shard ~time_ms:33.0 (fun () ->
      observed := Array.to_list (Array.map Des.Engine.now (Des.Shard.engines shard)));
  Des.Shard.run shard ~until_ms:100.0;
  check bool "every lane clock agrees when the global runs" true
    (!observed = [ 33.0; 33.0; 33.0 ]);
  check bool "no window open afterwards" false (Des.Shard.in_window shard)

let shard_fleet_matches_sequential () =
  (* The worker-domain count moves wall time only: the same cascade run
     with 1 and 4 domains must produce identical per-lane logs. Each lane
     writes only its own slot, so the logs are race-free under the fleet;
     the window barriers and the final joins publish them. *)
  let lanes = 4 in
  let run workers =
    let shard = Des.Shard.create ~seed:11L ~workers ~lanes ~lookahead_ms:4.0 () in
    let logs = Array.init lanes (fun _ -> ref []) in
    let rec hop lane time ttl =
      logs.(lane) := (time, ttl) :: !(logs.(lane));
      if ttl > 0 then begin
        let dst = (lane + ttl) mod lanes in
        Des.Shard.schedule_cross shard ~src:lane ~dst ~time_ms:(time +. 4.0)
          (fun () -> hop dst (time +. 4.0) (ttl - 1));
        Des.Engine.schedule (Des.Shard.engine shard lane) ~delay_ms:1.0 (fun () ->
            logs.(lane) := (time +. 1.0, -ttl) :: !(logs.(lane)))
      end
    in
    for lane = 0 to lanes - 1 do
      for k = 0 to 7 do
        let start = float_of_int ((lane * 3) + (k * 5)) in
        Des.Shard.schedule_cross shard ~src:lane ~dst:lane ~time_ms:start
          (fun () -> hop lane start (2 + ((lane + k) mod 3)))
      done
    done;
    Des.Shard.run shard ~until_ms:500.0;
    Array.map (fun log -> List.rev !log) logs
  in
  check bool "fleet run identical to sequential" true (run 1 = run 4)

let shard_epoch_stamps_sequential_order () =
  (* What the per-lane observability buffers rely on: every event knows
     the lane draining it (-1 for globals and code between runs) and the
     barrier epoch. Writes kept per lane and merged by (epoch, lane,
     sequence) must give back the order one domain executes them in. *)
  let lanes = 3 in
  let run workers =
    let shard = Des.Shard.create ~seed:5L ~workers ~lanes ~lookahead_ms:4.0 () in
    let slots = Array.init (lanes + 1) (fun _ -> ref []) in
    let executed = ref [] in
    let write id =
      let lane = Des.Shard.executing_lane () in
      let stamped = (Des.Shard.epoch shard, lane, id) in
      slots.(lane + 1) := stamped :: !(slots.(lane + 1));
      if workers = 1 then executed := stamped :: !executed
    in
    write 0;
    let rec hop lane time ttl =
      if Des.Shard.executing_lane () <> lane then Alcotest.fail "wrong executing lane";
      write ((lane * 1000) + ttl);
      if ttl > 0 then
        let dst = (lane + 1) mod lanes in
        Des.Shard.schedule_cross shard ~src:lane ~dst ~time_ms:(time +. 4.0) (fun () ->
            hop dst (time +. 4.0) (ttl - 1))
    in
    for lane = 0 to lanes - 1 do
      for k = 0 to 5 do
        let start = float_of_int ((lane * 2) + (k * 3)) in
        Des.Shard.schedule_cross shard ~src:lane ~dst:lane ~time_ms:start (fun () ->
            hop lane start (k mod 4))
      done
    done;
    List.iter
      (fun at ->
        Des.Shard.schedule_global shard ~time_ms:at (fun () ->
            if Des.Shard.executing_lane () <> -1 then Alcotest.fail "global on a lane";
            write (-1)))
      [ 7.0; 19.0 ];
    Des.Shard.run shard ~until_ms:100.0;
    write (-2);
    let merged =
      Array.to_list slots
      |> List.concat_map (fun slot -> List.rev !slot)
      |> List.stable_sort (fun (e, l, _) (e', l', _) -> compare (e, l) (e', l'))
    in
    (merged, List.rev !executed)
  in
  let merged1, executed = run 1 in
  let merged4, _ = run 4 in
  check bool "epochs advance" true (List.exists (fun (e, _, _) -> e > 2) executed);
  check bool "merge gives the one-domain order" true (merged1 = executed);
  check bool "four domains merge to the one-domain order" true (merged4 = executed)

let shard_lookahead_monotone_property =
  (* Conservative-lookahead soundness is monotone: any lookahead that is
     still a lower bound on the cross-lane delivery delay yields the same
     per-lane timelines — only the window widths change. (The order in
     which a sequential drain interleaves *different* lanes within a
     window is a scheduling artifact, invisible to the simulation: lanes
     observe each other through messages only, and those land on the
     destination's own timeline.) Random cascades whose cross messages
     travel exactly 20ms ahead must log identically at L = 1, 7 and 20. *)
  QCheck.Test.make ~count:60 ~name:"shard: lookahead-horizon monotonicity"
    QCheck.(
      list_of_size
        Gen.(int_range 1 20)
        (triple (int_bound 2) (int_bound 40) (int_bound 3)))
    (fun seeds ->
      let lanes = 3 in
      let run lookahead_ms =
        let shard = Des.Shard.create ~lanes ~lookahead_ms () in
        let logs = Array.init lanes (fun _ -> ref []) in
        let rec hop lane time ttl =
          logs.(lane) := (time, ttl) :: !(logs.(lane));
          if ttl > 0 then
            let dst = (lane + 1) mod lanes in
            Des.Shard.schedule_cross shard ~src:lane ~dst ~time_ms:(time +. 20.0)
              (fun () -> hop dst (time +. 20.0) (ttl - 1))
        in
        List.iter
          (fun (lane, start, ttl) ->
            let start = float_of_int start in
            Des.Shard.schedule_cross shard ~src:lane ~dst:lane ~time_ms:start
              (fun () -> hop lane start ttl))
          seeds;
        Des.Shard.run shard ~until_ms:300.0;
        Array.map (fun log -> List.rev !log) logs
      in
      let reference = run 20.0 in
      run 7.0 = reference && run 1.0 = reference)

let shard_cross_delivery_order_property =
  (* Deliveries buffered during one window flush in (dst, src, append)
     order, so a destination executes same-time messages in source order,
     then emission order — a pure function of the simulation, never of
     domain scheduling. The model predicts the exact sequence. *)
  QCheck.Test.make ~count:100 ~name:"shard: cross-domain delivery ordering"
    QCheck.(
      list_of_size
        Gen.(int_range 1 25)
        (triple (int_bound 2) (int_bound 2) (int_bound 1)))
    (fun messages ->
      let lanes = 3 in
      let shard = Des.Shard.create ~lanes ~lookahead_ms:10.0 () in
      let tagged = List.mapi (fun i (src, dst, late) -> (i, src, dst, late)) messages in
      let delivery_ms late = if late = 1 then 150.0 else 100.0 in
      let logs = Array.make lanes [] in
      (* One emitter event per source lane at t=0 sends that source's
         messages in list order; all three emitters share one window. *)
      for src = 0 to lanes - 1 do
        Des.Shard.schedule_cross shard ~src ~dst:src ~time_ms:0.0 (fun () ->
            List.iter
              (fun (tag, msg_src, dst, late) ->
                if msg_src = src then
                  Des.Shard.schedule_cross shard ~src ~dst
                    ~time_ms:(delivery_ms late) (fun () ->
                      logs.(dst) <- tag :: logs.(dst)))
              tagged)
      done;
      Des.Shard.run shard ~until_ms:200.0;
      let expected dst =
        let at time =
          List.concat_map
            (fun src ->
              List.filter_map
                (fun (tag, msg_src, msg_dst, late) ->
                  if msg_src = src && msg_dst = dst && delivery_ms late = time then
                    Some tag
                  else None)
                tagged)
            [ 0; 1; 2 ]
        in
        at 100.0 @ at 150.0
      in
      List.for_all (fun dst -> List.rev logs.(dst) = expected dst) [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Event lines *)

(* A program mixes direct events (source 0) with the entries of two
   lines (sources 1, 2). Each executed event logs its id and time, then
   takes the next step of the pool: it may kill one of the three most
   recently pushed events, and it pushes that step's [fanout] children
   [delta] ms ahead on the step's source, so pushes are re-entrant and,
   with deltas 0..3 and fanouts up to 2, equal timestamps are common. A
   line's times may not decrease, so a line child is lifted to its line's
   last time; direct children are not. A killed event is a no-op: with
   lines it is dead to its line's liveness test, with direct scheduling
   its closure does nothing. Run once with lines and once with
   [schedule_at] for everything, the two logs must be equal: a line
   keeps each entry's place in the tie order, and a dead entry never
   reaches the callback. *)
let run_line_program ~lines (roots, pool) =
  let engine = Des.Engine.create () in
  let log = ref [] and next_id = ref 0 and cursor = ref 0 in
  let dead = Array.make (List.length roots + (2 * Array.length pool)) false in
  let last = Array.make 3 neg_infinity in
  let push_ref = ref (fun _ _ -> ()) in
  let fire id =
    log := (id, Des.Engine.now engine) :: !log;
    if !cursor < Array.length pool then begin
      let src, delta, fanout, kill = pool.(!cursor) in
      incr cursor;
      if kill < 3 && kill < !next_id then dead.(!next_id - 1 - kill) <- true;
      for _ = 1 to fanout do
        !push_ref src (Des.Engine.now engine +. float_of_int delta)
      done
    end
  in
  let ls =
    Array.init 2 (fun _ ->
        Des.Engine.line engine ~dummy:(-1) ~live:(fun id -> not dead.(id)) fire)
  in
  (push_ref :=
     fun src time ->
       let time = if src = 0 then time else Float.max time last.(src) in
       last.(src) <- time;
       let id = !next_id in
       incr next_id;
       if src > 0 && lines then Des.Engine.line_push ls.(src - 1) ~time_ms:time id
       else
         Des.Engine.schedule_at engine ~time_ms:time (fun () ->
             if not dead.(id) then fire id));
  List.iter (fun (src, time) -> !push_ref src (float_of_int time)) roots;
  Des.Engine.run engine;
  List.rev !log

let line_order_property =
  let step =
    QCheck.Gen.(quad (int_bound 2) (int_bound 3) (int_bound 2) (int_bound 5))
  in
  let root = QCheck.Gen.(pair (int_bound 2) (int_bound 5)) in
  QCheck.Test.make ~count:300 ~name:"line: execution order equals direct scheduling"
    (QCheck.make
       ~print:(fun (roots, pool) ->
         Printf.sprintf "<%d roots, %d steps>" (List.length roots) (Array.length pool))
       QCheck.Gen.(
         pair (list_size (int_range 1 8) root) (array_size (int_bound 400) step)))
    (fun program ->
      let direct = run_line_program ~lines:false program in
      direct = run_line_program ~lines:true program)

let line_rejects_decreasing_time () =
  let engine = Des.Engine.create () in
  let l = Des.Engine.line engine ~dummy:0 ~live:(fun _ -> true) ignore in
  Des.Engine.line_push l ~time_ms:10.0 1;
  Des.Engine.line_push l ~time_ms:10.0 2;
  check bool "a push below the last time raises" true
    (match Des.Engine.line_push l ~time_ms:9.0 3 with
    | () -> false
    | exception Invalid_argument _ -> true);
  let fired = ref [] in
  let l = Des.Engine.line engine ~dummy:0 ~live:(fun _ -> true) (fun v -> fired := v :: !fired) in
  Des.Engine.line_push l ~time_ms:5.0 1;
  Des.Engine.run engine;
  (* The clock is now 10: a later push is clamped to it, like schedule_at. *)
  Des.Engine.line_push l ~time_ms:1.0 2;
  Des.Engine.run engine;
  check (Alcotest.list int) "both fired, in order" [ 1; 2 ] (List.rev !fired)

let line_entry_runs_under_its_context () =
  let engine = Des.Engine.create () in
  let seen = ref [] in
  let l =
    Des.Engine.line engine ~dummy:0 ~live:(fun _ -> true) (fun v ->
        seen := (v, Des.Engine.current_context engine) :: !seen)
  in
  let a = Des.Trace_context.root ~trace:7 and b = Des.Trace_context.root ~trace:9 in
  Des.Engine.with_context engine a (fun () -> Des.Engine.line_push l ~time_ms:1.0 1);
  Des.Engine.line_push l ~time_ms:1.0 2;
  Des.Engine.with_context engine b (fun () -> Des.Engine.line_push l ~time_ms:2.0 3);
  Des.Engine.run engine;
  check bool "each entry under the context of its push" true
    (match List.rev !seen with
    | [ (1, ca); (2, cn); (3, cb) ] ->
        ca == a && Des.Trace_context.is_none cn && cb == b
    | _ -> false);
  check bool "context restored after the entry" true
    (Des.Trace_context.is_none (Des.Engine.current_context engine))

(* The ring grows past its first capacity, half the entries fire, and the
   quarter behind them is dead: the last entry fired drops it. The major
   GC runs while the line is still live: no fired or dropped payload may
   stay reachable from the line's slots, and no live one may be lost. *)
let line_releases_fired () =
  let n = 1_000 in
  let engine = Des.Engine.create () in
  let fired = ref 0 in
  let l =
    Des.Engine.line engine ~dummy:(ref (-1))
      ~live:(fun v -> !v < n / 2 || !v >= 3 * n / 4)
      (fun _ -> incr fired)
  in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let value = ref i in
    Weak.set weak i (Some value);
    Des.Engine.line_push l ~time_ms:(float_of_int i) value
  done;
  Des.Engine.run engine ~until_ms:(float_of_int ((n / 2) - 1));
  Gc.full_major ();
  check int "half fired" (n / 2) !fired;
  let reachable lo hi =
    let r = ref 0 in
    for i = lo to hi - 1 do
      if Weak.check weak i then incr r
    done;
    !r
  in
  check int "fired payloads still reachable" 0 (reachable 0 (n / 2));
  check int "dropped payloads still reachable" 0 (reachable (n / 2) (3 * n / 4));
  check int "queued payloads kept" (n / 4) (reachable (3 * n / 4) n);
  Des.Engine.run engine;
  check int "live entries all fired" (3 * n / 4) !fired;
  Des.Engine.line_push (Sys.opaque_identity l) ~time_ms:(float_of_int n) (ref n)

(* With no finite limit, a shard returns once nothing is left to run, as
   [Engine.run] does, its clock where the last event or global left it. *)
let shard_runs_to_infinity () =
  let shard = Des.Shard.create ~lanes:1 ~lookahead_ms:1.0 () in
  let fired = ref 0 in
  Des.Engine.schedule_at (Des.Shard.engine shard 0) ~time_ms:1.0 (fun () -> incr fired);
  Des.Shard.run shard ~until_ms:infinity;
  check int "the event ran" 1 !fired;
  check (Alcotest.float 0.0) "clock at the event" 1.0 (Des.Shard.now shard);
  Des.Shard.schedule_global shard ~time_ms:2.0 (fun () -> incr fired);
  Des.Shard.run shard ~until_ms:infinity;
  check int "the global ran" 2 !fired;
  check (Alcotest.float 0.0) "clock at the global" 2.0 (Des.Shard.now shard)

(* Five clients acquire every 10 ms for 10 s and hold each grant 5 s:
   about 500 grants per client are held at once. With one release line
   per client, each client lane's queue holds its line's head, not an
   event per held grant (it reads 5 at peak; 503 with one event each). *)
let driver_releases_keep_queue_small () =
  let clients = Array.of_list Geonet.Region.default_five in
  let t_system =
    Harness.Systems.samya ~seed:3L ~config:Samya.Config.default ~regions:clients
      ~entity:"VM" ~maximum:100_000 ()
  in
  let peak_pending = ref 0 and held = ref 0 and peak_held = ref 0 in
  Array.iter
    (fun region ->
      Des.Engine.set_tracer (t_system.Harness.Systems.sched_region region)
        (Some
           {
             Des.Engine.on_timer_fired = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
             on_timer_cancelled = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
             after_step =
               (fun ~now_ms:_ ~pending -> peak_pending := max !peak_pending pending);
           }))
    clients;
  let submit ~region request ~reply =
    t_system.Harness.Systems.submit ~region request ~reply:(fun response ->
        (match (request, response) with
        | Samya.Types.Acquire _, Samya.Types.Granted ->
            incr held;
            peak_held := max !peak_held !held
        | Samya.Types.Release _, Samya.Types.Granted -> decr held
        | _ -> ());
        reply response)
  in
  let requests =
    Array.init 5_000 (fun i ->
        {
          Trace.Workload.time_ms = float_of_int (i / 5) *. 10.0;
          site = i mod 5;
          kind = Trace.Workload.Acquire;
          amount = 1;
          entity = "";
        })
  in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:clients ~requests
         ~duration_ms:10_000.0)
      with
      Harness.Driver.drain_ms = 10_000.0;
      grant_driven_release_ms = Some 5_000.0;
    }
  in
  let r = Harness.Driver.run ~t_system:{ t_system with submit } spec in
  check int "every acquire and its release committed" 10_000 r.Harness.Driver.committed;
  check int "every grant returned" 0 !held;
  check bool "thousands of grants held at once" true (!peak_held >= 2_000);
  check bool
    (Printf.sprintf "peak queue O(clients), not O(grants held) (read %d)" !peak_pending)
    true
    (!peak_pending <= 4 * Array.length clients)

let suite =
  [
    Alcotest.test_case "rng: deterministic by seed" `Quick rng_deterministic;
    Alcotest.test_case "rng: copy continues the stream" `Quick rng_copy_independent;
    Alcotest.test_case "rng: split diverges" `Quick rng_split_diverges;
    Alcotest.test_case "rng: int bounds" `Quick rng_int_bounds;
    Alcotest.test_case "rng: float bounds" `Quick rng_float_bounds;
    Alcotest.test_case "rng: gaussian moments" `Quick rng_gaussian_moments;
    Alcotest.test_case "rng: exponential mean" `Quick rng_exponential_mean;
    Alcotest.test_case "rng: bernoulli rate" `Quick rng_bool_probability;
    Alcotest.test_case "rng: shuffle permutes" `Quick rng_shuffle_permutes;
    Alcotest.test_case "pheap: sorted drain" `Quick pheap_ordering;
    Alcotest.test_case "pheap: fifo on ties" `Quick pheap_fifo_ties;
    Alcotest.test_case "pheap: drain_below / drain_to" `Quick pheap_drain_below_and_to;
    Alcotest.test_case "pheap: pop_unsafe/min_key drain" `Quick pheap_pop_unsafe_matches_pop;
    QCheck_alcotest.to_alcotest pheap_property;
    QCheck_alcotest.to_alcotest pheap_interleaving_property;
    QCheck_alcotest.to_alcotest pheap_growth_property;
    Alcotest.test_case "pheap: popped values are unreachable" `Quick pheap_releases_popped;
    Alcotest.test_case "engine: time order" `Quick engine_runs_in_time_order;
    Alcotest.test_case "engine: fifo for simultaneous" `Quick engine_simultaneous_fifo;
    Alcotest.test_case "engine: nested scheduling" `Quick engine_nested_scheduling;
    Alcotest.test_case "engine: run until" `Quick engine_run_until;
    Alcotest.test_case "engine: cancellable timers" `Quick engine_cancel_timer;
    Alcotest.test_case "engine: timer cancel lifecycle" `Quick engine_timer_cancel_lifecycle;
    Alcotest.test_case "engine: negative delay clamped" `Quick engine_negative_delay_clamped;
    Alcotest.test_case "engine: past schedule clamped" `Quick engine_past_absolute_time_clamped;
    Alcotest.test_case "engine: obs-off drain allocation" `Quick
      engine_untraced_drain_no_extra_allocation;
    Alcotest.test_case "shard: parameter validation" `Quick shard_validation;
    Alcotest.test_case "shard: runs to infinity and returns" `Quick shard_runs_to_infinity;
    Alcotest.test_case "shard: cross-lane ping-pong" `Quick shard_cross_lane_ping_pong;
    Alcotest.test_case "shard: horizon guard" `Quick shard_horizon_guard;
    Alcotest.test_case "shard: global barrier aligns clocks" `Quick
      shard_global_barrier_aligns_clocks;
    Alcotest.test_case "shard: fleet matches sequential" `Quick
      shard_fleet_matches_sequential;
    Alcotest.test_case "shard: epoch stamps order a sequential drain" `Quick
      shard_epoch_stamps_sequential_order;
    QCheck_alcotest.to_alcotest shard_lookahead_monotone_property;
    QCheck_alcotest.to_alcotest shard_cross_delivery_order_property;
    QCheck_alcotest.to_alcotest line_order_property;
    Alcotest.test_case "line: a decreasing push raises" `Quick line_rejects_decreasing_time;
    Alcotest.test_case "line: an entry runs under its own context" `Quick
      line_entry_runs_under_its_context;
    Alcotest.test_case "line: fired payloads are unreachable" `Quick line_releases_fired;
    Alcotest.test_case "line: grant-driven releases keep the queue O(clients)" `Quick
      driver_releases_keep_queue_small;
  ]
