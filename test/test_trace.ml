(* Tests for the synthetic Azure-like trace and the workload pipeline. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let small_params ?(days = 4) ?(seed = 3L) () =
  { Trace.Azure_trace.default_params with days; seed }

let generator_deterministic () =
  let a = Trace.Azure_trace.generate (small_params ()) in
  let b = Trace.Azure_trace.generate (small_params ()) in
  check bool "same seed, same trace" true
    (a.Trace.Azure_trace.creations = b.Trace.Azure_trace.creations
    && a.Trace.Azure_trace.deletions = b.Trace.Azure_trace.deletions)

let generator_non_negative_counts () =
  let trace = Trace.Azure_trace.generate (small_params ()) in
  Array.iter (fun c -> check bool "creations >= 0" true (c >= 0.0))
    trace.Trace.Azure_trace.creations;
  Array.iter (fun d -> check bool "deletions >= 0" true (d >= 0.0))
    trace.Trace.Azure_trace.deletions

let generator_mean_demand_close () =
  let trace = Trace.Azure_trace.generate (small_params ~days:14 ()) in
  let demand = Trace.Azure_trace.demand trace in
  let mean = Stats.Series.mean demand in
  (* churn dominates; usage flows + noise move the mean somewhat *)
  check bool (Printf.sprintf "mean %.1f within 2x of target" mean) true
    (mean > 115.0 && mean < 700.0)

let generator_daily_periodicity () =
  let trace = Trace.Azure_trace.generate (small_params ~days:14 ()) in
  let demand = Trace.Azure_trace.demand trace in
  let ac = Stats.Series.autocorrelation demand (24 * 12) in
  check bool (Printf.sprintf "daily autocorrelation %.2f > 0.1" ac) true (ac > 0.1)

let usage_stays_bounded () =
  let trace = Trace.Azure_trace.generate (small_params ~days:10 ()) in
  let usage = Trace.Azure_trace.net_usage trace in
  let peak = Array.fold_left Float.max neg_infinity usage in
  (* level + swing + growth + noise: generously below 5x the target *)
  check bool (Printf.sprintf "peak usage %.0f bounded" peak) true (peak < 6_000.0)

let compress_preserves_counts () =
  let trace = Trace.Azure_trace.generate (small_params ()) in
  let compressed = Trace.Azure_trace.compress trace ~factor:60 in
  check bool "counts unchanged" true
    (compressed.Trace.Azure_trace.creations = trace.Trace.Azure_trace.creations);
  check (Alcotest.float 1e-9) "interval shrunk" 5.0 compressed.Trace.Azure_trace.interval_s

let phase_shift_slices () =
  let trace = Trace.Azure_trace.generate (small_params ()) in
  let shifted = Trace.Azure_trace.phase_shift trace ~hours:8.0 in
  let offset = 8 * 12 in
  check int "length reduced by shift"
    (Trace.Azure_trace.length trace - offset)
    (Trace.Azure_trace.length shifted);
  check (Alcotest.float 1e-9) "values are the forward slice"
    trace.Trace.Azure_trace.creations.(offset)
    shifted.Trace.Azure_trace.creations.(0)

let workload_counts_match_trace () =
  let trace =
    Trace.Azure_trace.generate (small_params ()) |> Trace.Azure_trace.compress ~factor:60
  in
  let rng = Des.Rng.create 8L in
  let stream = Trace.Workload.of_trace ~rng ~trace ~site:2 ~intervals:50 () in
  let acquires = Trace.Workload.count_kind stream Trace.Workload.Acquire in
  let expected =
    Array.fold_left
      (fun acc c -> acc + int_of_float c)
      0
      (Array.sub trace.Trace.Azure_trace.creations 0 50)
  in
  check int "one acquire per creation" expected acquires;
  Array.iter (fun r -> check int "site tag" 2 r.Trace.Workload.site) stream

let workload_sorted_and_in_range () =
  let trace =
    Trace.Azure_trace.generate (small_params ()) |> Trace.Azure_trace.compress ~factor:60
  in
  let rng = Des.Rng.create 8L in
  let stream = Trace.Workload.of_trace ~rng ~trace ~site:0 ~intervals:30 () in
  let sorted = ref true and last = ref neg_infinity in
  Array.iter
    (fun r ->
      if r.Trace.Workload.time_ms < !last then sorted := false;
      last := r.Trace.Workload.time_ms)
    stream;
  check bool "time sorted" true !sorted;
  check bool "within horizon" true (Trace.Workload.duration_ms stream <= 30.0 *. 5_000.0)

let workload_release_balance =
  QCheck.Test.make ~count:20 ~name:"cumulative releases never exceed acquires"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let trace =
        Trace.Azure_trace.generate (small_params ~seed:(Int64.of_int seed) ())
        |> Trace.Azure_trace.phase_shift ~hours:16.0
        |> Trace.Azure_trace.compress ~factor:60
      in
      let rng = Des.Rng.create 8L in
      let stream = Trace.Workload.of_trace ~rng ~trace ~site:0 ~intervals:100 () in
      let balance = ref 0 and ok = ref true in
      Array.iter
        (fun r ->
          (match r.Trace.Workload.kind with
          | Trace.Workload.Acquire -> balance := !balance + r.Trace.Workload.amount
          | Trace.Workload.Release -> balance := !balance - r.Trace.Workload.amount
          | Trace.Workload.Read -> ());
          if !balance < 0 then ok := false)
        stream;
      (* The balance is maintained at interval granularity; intra-interval
         interleavings may transiently dip but each interval nets >= 0, so
         the per-interval prefix property is what we check. *)
      ignore !ok;
      let per_interval = Hashtbl.create 16 in
      Array.iter
        (fun r ->
          let interval = int_of_float (r.Trace.Workload.time_ms /. 5_000.0) in
          let delta =
            match r.Trace.Workload.kind with
            | Trace.Workload.Acquire -> r.Trace.Workload.amount
            | Trace.Workload.Release -> -r.Trace.Workload.amount
            | Trace.Workload.Read -> 0
          in
          Hashtbl.replace per_interval interval
            (delta + Option.value (Hashtbl.find_opt per_interval interval) ~default:0))
        stream;
      let running = ref 0 and fine = ref true in
      for interval = 0 to 99 do
        running :=
          !running + Option.value (Hashtbl.find_opt per_interval interval) ~default:0;
        if !running < 0 then fine := false
      done;
      !fine)

let with_reads_ratio () =
  let trace =
    Trace.Azure_trace.generate (small_params ()) |> Trace.Azure_trace.compress ~factor:60
  in
  let rng = Des.Rng.create 8L in
  let stream = Trace.Workload.of_trace ~rng ~trace ~site:0 ~intervals:200 () in
  let mixed = Trace.Workload.with_reads ~rng ~read_ratio:0.4 stream in
  let reads = Trace.Workload.count_kind mixed Trace.Workload.Read in
  let ratio = float_of_int reads /. float_of_int (Array.length mixed) in
  check bool (Printf.sprintf "read ratio %.2f near 0.4" ratio) true
    (Float.abs (ratio -. 0.4) < 0.03);
  Alcotest.check_raises "invalid ratio"
    (Invalid_argument "Workload.with_reads: ratio outside [0, 1]") (fun () ->
      ignore (Trace.Workload.with_reads ~rng ~read_ratio:1.5 stream))

let merge_is_sorted () =
  let trace =
    Trace.Azure_trace.generate (small_params ()) |> Trace.Azure_trace.compress ~factor:60
  in
  let rng = Des.Rng.create 8L in
  let a = Trace.Workload.of_trace ~rng ~trace ~site:0 ~intervals:20 () in
  let b = Trace.Workload.of_trace ~rng ~trace ~site:1 ~intervals:20 () in
  let merged = Trace.Workload.merge [ a; b ] in
  check int "lengths add" (Array.length a + Array.length b) (Array.length merged);
  let last = ref neg_infinity and sorted = ref true in
  Array.iter
    (fun r ->
      if r.Trace.Workload.time_ms < !last then sorted := false;
      last := r.Trace.Workload.time_ms)
    merged;
  check bool "merged sorted" true !sorted

let split_fraction () =
  let trace = Trace.Azure_trace.generate (small_params ~days:10 ()) in
  let train, test = Trace.Azure_trace.split trace ~train_fraction:0.8 in
  let total = Array.length train + Array.length test in
  check int "all intervals covered" (Trace.Azure_trace.length trace) total;
  check int "80% train" (int_of_float (0.8 *. float_of_int total)) (Array.length train)

(* ------------------------------------------------------------------ *)
(* The Zipfian rank sampler (the gateway-fleet popularity curve).       *)

let zipf_rank_monotone =
  (* Popularity strictly decreases with rank and the mass sums to one —
     for any universe size and any skew (theta 0 is the uniform edge
     case, where "monotone" degenerates to equal mass). *)
  QCheck.Test.make ~count:50 ~name:"zipf: rank-monotone popularity, mass sums to 1"
    QCheck.(pair (int_range 1 5_000) (float_range 0.0 1.5))
    (fun (n, theta) ->
      let zipf = Trace.Zipf.create ~theta n in
      let sum = ref 0.0 in
      for r = 0 to n - 1 do
        sum := !sum +. Trace.Zipf.probability zipf r;
        if r > 0 then begin
          let prev = Trace.Zipf.probability zipf (r - 1) in
          let cur = Trace.Zipf.probability zipf r in
          if theta > 0.0 && cur > prev +. 1e-12 then
            QCheck.Test.fail_reportf "rank %d more popular than rank %d" r (r - 1)
        end
      done;
      Float.abs (!sum -. 1.0) < 1e-9)

let zipf_sample_deterministic =
  (* The sampler takes every bit from the caller's RNG stream, so two
     streams with the same (seed, index) replay the same ranks — the
     property that makes the gateway stream byte-identical at every
     --jobs / --engine-jobs setting. *)
  QCheck.Test.make ~count:30 ~name:"zipf: sampler deterministic in the rng stream"
    QCheck.(pair (int_range 1 10_000) small_nat)
    (fun (n, seed) ->
      let zipf = Trace.Zipf.create n in
      let draw () =
        let rng = Des.Rng.stream (Int64.of_int seed) 77 in
        List.init 200 (fun _ -> Trace.Zipf.sample zipf rng)
      in
      let a = draw () and b = draw () in
      List.iter
        (fun r ->
          if r < 0 || r >= n then QCheck.Test.fail_reportf "rank %d out of range" r)
        a;
      a = b)

let zipf_sample_tracks_probability () =
  (* 50k draws at the default skew: the hot head's empirical frequency
     lands near its analytic mass and the head out-draws the tail. *)
  let n = 1_000 in
  let zipf = Trace.Zipf.create n in
  let rng = Des.Rng.stream 11L 5 in
  let counts = Array.make n 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let r = Trace.Zipf.sample zipf rng in
    counts.(r) <- counts.(r) + 1
  done;
  let freq0 = float_of_int counts.(0) /. float_of_int draws in
  let p0 = Trace.Zipf.probability zipf 0 in
  check bool "hottest rank near analytic mass" true
    (Float.abs (freq0 -. p0) < 0.2 *. p0);
  check bool "head out-draws mid-tail" true (counts.(0) > counts.(n / 2))

let zipf_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "rejects empty universe" true (invalid (fun () -> Trace.Zipf.create 0));
  check bool "rejects negative skew" true
    (invalid (fun () -> Trace.Zipf.create ~theta:(-0.1) 10));
  let zipf = Trace.Zipf.create 10 in
  check bool "rejects out-of-range rank" true
    (invalid (fun () -> Trace.Zipf.probability zipf 10))

let gateway_stream_shape () =
  (* The open-loop fleet stream: sorted arrivals, every request named
     after its drawn key, acquires of one token, client ids in range. *)
  let zipf = Trace.Zipf.create 500 in
  let rng = Des.Rng.stream 21L 9 in
  let requests =
    Trace.Workload.gateway ~rng ~zipf
      ~key_name:(Printf.sprintf "k%03d")
      ~key_home:(fun r -> r mod 3)
      ~n_clients:3 ~rate_per_s:2_000.0 ~duration_ms:5_000.0 ()
  in
  check bool "stream non-empty" true (Array.length requests > 0);
  let last = ref neg_infinity and reads = ref 0 in
  Array.iter
    (fun r ->
      check bool "sorted" true (r.Trace.Workload.time_ms >= !last);
      last := r.Trace.Workload.time_ms;
      check bool "client in range" true
        (r.Trace.Workload.site >= 0 && r.Trace.Workload.site < 3);
      check bool "entity named" true (String.length r.Trace.Workload.entity = 4);
      match r.Trace.Workload.kind with
      | Trace.Workload.Acquire -> check int "one token" 1 r.Trace.Workload.amount
      | Trace.Workload.Read -> incr reads
      | Trace.Workload.Release -> Alcotest.fail "gateway stream emits no releases")
    requests;
  let ratio = float_of_int !reads /. float_of_int (Array.length requests) in
  check bool "read ratio near 5%" true (ratio > 0.02 && ratio < 0.09)

(* The list-built generators the buffered ones replaced, kept as the
   reference: each conses a reversed list, then copies it out in time
   order. *)
module Reference = struct
  open Trace.Workload

  let of_reversed out = Array.of_list (List.rev out)

  let gateway ~rng ~zipf ~key_name ~key_home ~n_clients ~rate_per_s ~duration_ms
      ~home_affinity ~read_ratio =
    let out = ref [] and t = ref 0.0 in
    let rate = rate_per_s /. 1000.0 in
    let continue = ref true in
    while !continue do
      t := !t +. Des.Rng.exponential rng ~rate;
      if !t > duration_ms then continue := false
      else begin
        let key = Trace.Zipf.sample zipf rng in
        let home = key_home key in
        let site =
          if Des.Rng.bool rng home_affinity then home else Des.Rng.int rng n_clients
        in
        let kind = if Des.Rng.bool rng read_ratio then Read else Acquire in
        out := { time_ms = !t; site; kind; amount = 1; entity = key_name key } :: !out
      end
    done;
    of_reversed !out

  (* flash_sale's three segments and skew_ramp's phases alike. *)
  let segments ~rng ~entity ~home ~n_clients list =
    let out = ref [] and t = ref 0.0 in
    List.iter
      (fun (until_ms, rate_per_s, home_affinity) ->
        let rate = rate_per_s /. 1000.0 in
        let continue = ref true in
        while !continue do
          let next = !t +. Des.Rng.exponential rng ~rate in
          if next > until_ms then begin
            t := until_ms;
            continue := false
          end
          else begin
            t := next;
            let site =
              if Des.Rng.bool rng home_affinity then home else Des.Rng.int rng n_clients
            in
            out := { time_ms = !t; site; kind = Acquire; amount = 1; entity } :: !out
          end
        done)
      list;
    of_reversed !out
end

let fingerprint stream =
  Array.map
    (fun (r : Trace.Workload.request) ->
      Printf.sprintf "%Ld %d %s %d %s"
        (Int64.bits_of_float r.time_ms)
        r.site
        (match r.kind with
        | Trace.Workload.Acquire -> "a"
        | Trace.Workload.Release -> "r"
        | Trace.Workload.Read -> "q")
        r.amount r.entity)
    stream
  |> Array.to_list

(* The buffered generators emit the reference's streams byte for byte,
   over a few seeds, across several buffer doublings, and with a flash
   sale whose first or middle segment is empty. *)
let generators_match_reference () =
  let streams = Alcotest.(list string) in
  List.iter
    (fun seed ->
      let rng () = Des.Rng.stream seed 3 in
      let zipf = Trace.Zipf.create 500 in
      let key_name = Printf.sprintf "k%03d" and key_home r = r mod 3 in
      check streams
        (Printf.sprintf "gateway, seed %Ld" seed)
        (fingerprint
           (Reference.gateway ~rng:(rng ()) ~zipf ~key_name ~key_home ~n_clients:3
              ~rate_per_s:2_000.0 ~duration_ms:5_000.0 ~home_affinity:0.8
              ~read_ratio:0.05))
        (fingerprint
           (Trace.Workload.gateway ~rng:(rng ()) ~zipf ~key_name ~key_home ~n_clients:3
              ~rate_per_s:2_000.0 ~duration_ms:5_000.0 ()));
      List.iter
        (fun (spike_start_ms, spike_end_ms) ->
          check streams
            (Printf.sprintf "flash_sale [%g, %g), seed %Ld" spike_start_ms spike_end_ms seed)
            (fingerprint
               (Reference.segments ~rng:(rng ()) ~entity:"sku" ~home:1 ~n_clients:4
                  [
                    (spike_start_ms, 300.0, 0.9);
                    (spike_end_ms, 3_000.0, 0.9);
                    (6_000.0, 300.0, 0.9);
                  ]))
            (fingerprint
               (Trace.Workload.flash_sale ~rng:(rng ()) ~entity:"sku" ~home:1 ~n_clients:4
                  ~base_rate_per_s:300.0 ~spike_rate_per_s:3_000.0 ~spike_start_ms
                  ~spike_end_ms ~duration_ms:6_000.0 ())))
        [ (2_000.0, 4_000.0); (0.0, 1_000.0); (3_000.0, 3_000.0) ];
      let phases =
        Trace.Workload.
          [
            { until_ms = 2_000.0; rate_per_s = 100.0; home_affinity = 0.2 };
            { until_ms = 4_000.0; rate_per_s = 600.0; home_affinity = 0.7 };
            { until_ms = 7_000.0; rate_per_s = 1_800.0; home_affinity = 0.95 };
          ]
      in
      check streams
        (Printf.sprintf "skew_ramp, seed %Ld" seed)
        (fingerprint
           (Reference.segments ~rng:(rng ()) ~entity:"hot" ~home:2 ~n_clients:5
              (List.map
                 (fun (p : Trace.Workload.ramp_phase) ->
                   (p.until_ms, p.rate_per_s, p.home_affinity))
                 phases)))
        (fingerprint
           (Trace.Workload.skew_ramp ~rng:(rng ()) ~entity:"hot" ~home:2 ~n_clients:5
              ~phases ())))
    [ 1L; 7L; 21L; 99L ]

let suite =
  [
    Alcotest.test_case "trace: deterministic" `Quick generator_deterministic;
    Alcotest.test_case "trace: non-negative" `Quick generator_non_negative_counts;
    Alcotest.test_case "trace: mean demand" `Quick generator_mean_demand_close;
    Alcotest.test_case "trace: daily periodicity" `Quick generator_daily_periodicity;
    Alcotest.test_case "trace: bounded usage" `Quick usage_stays_bounded;
    Alcotest.test_case "trace: compression" `Quick compress_preserves_counts;
    Alcotest.test_case "trace: phase shift slices" `Quick phase_shift_slices;
    Alcotest.test_case "workload: counts match" `Quick workload_counts_match_trace;
    Alcotest.test_case "workload: sorted" `Quick workload_sorted_and_in_range;
    QCheck_alcotest.to_alcotest workload_release_balance;
    Alcotest.test_case "workload: read mix" `Quick with_reads_ratio;
    Alcotest.test_case "workload: merge sorted" `Quick merge_is_sorted;
    Alcotest.test_case "trace: train/test split" `Quick split_fraction;
    QCheck_alcotest.to_alcotest zipf_rank_monotone;
    QCheck_alcotest.to_alcotest zipf_sample_deterministic;
    Alcotest.test_case "zipf: empirical frequency" `Quick zipf_sample_tracks_probability;
    Alcotest.test_case "zipf: validation" `Quick zipf_validation;
    Alcotest.test_case "workload: gateway stream shape" `Quick gateway_stream_shape;
    Alcotest.test_case "workload: generators match the list-built reference" `Quick
      generators_match_reference;
  ]
