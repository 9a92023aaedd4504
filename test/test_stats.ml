(* Tests for the statistics toolkit: summaries, exact percentiles,
   throughput windows and series utilities. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let feq = Alcotest.float 1e-9
let fapprox = Alcotest.float 1e-6

let summary_matches_naive () =
  let values = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) values;
  check fapprox "mean" 5.0 (Stats.Summary.mean s);
  check fapprox "stddev (sample)" (sqrt (32.0 /. 7.0)) (Stats.Summary.stddev s);
  check feq "min" 2.0 (Stats.Summary.min_value s);
  check feq "max" 9.0 (Stats.Summary.max_value s);
  check int "count" 8 (Stats.Summary.count s);
  check feq "total" 40.0 (Stats.Summary.total s)

let summary_empty () =
  let s = Stats.Summary.create () in
  check bool "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  check bool "variance nan" true (Float.is_nan (Stats.Summary.variance s))

let summary_merge =
  QCheck.Test.make ~count:100 ~name:"summary merge equals concatenation"
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = Stats.Summary.create () and b = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      let merged = Stats.Summary.merge a b in
      let whole = Stats.Summary.create () in
      List.iter (Stats.Summary.add whole) (xs @ ys);
      Float.abs (Stats.Summary.mean merged -. Stats.Summary.mean whole) < 1e-6
      && Stats.Summary.count merged = Stats.Summary.count whole)

let sample_set_percentiles () =
  let s = Stats.Sample_set.create () in
  List.iter (Stats.Sample_set.add s) [ 15.0; 20.0; 35.0; 40.0; 50.0 ];
  check feq "p0 = min" 15.0 (Stats.Sample_set.percentile s 0.0);
  check feq "p100 = max" 50.0 (Stats.Sample_set.percentile s 100.0);
  check feq "median" 35.0 (Stats.Sample_set.median s);
  (* numpy-style linear interpolation: p30 of this set is 21.5? rank =
     0.3*4 = 1.2 -> 20 + 0.2*(35-20) = 23. *)
  check fapprox "p30 interpolated" 23.0 (Stats.Sample_set.percentile s 30.0);
  check fapprox "mean" 32.0 (Stats.Sample_set.mean s)

let sample_set_unsorted_input () =
  let s = Stats.Sample_set.create () in
  List.iter (Stats.Sample_set.add s) [ 5.0; 1.0; 3.0 ];
  check feq "median of unsorted" 3.0 (Stats.Sample_set.median s);
  (* Adding after sorting must keep working. *)
  Stats.Sample_set.add s 0.0;
  check feq "min after re-add" 0.0 (Stats.Sample_set.percentile s 0.0)

let sample_set_bounds () =
  let s = Stats.Sample_set.create () in
  Stats.Sample_set.add s 1.0;
  Alcotest.check_raises "p > 100" (Invalid_argument "Sample_set.percentile") (fun () ->
      ignore (Stats.Sample_set.percentile s 101.0))

let sample_set_rejects_nan () =
  let s = Stats.Sample_set.create () in
  Stats.Sample_set.add s 1.0;
  Alcotest.check_raises "p = nan"
    (Invalid_argument "Sample_set.percentile: p must be a number (got nan)") (fun () ->
      ignore (Stats.Sample_set.percentile s Float.nan))

let sample_set_percentile_property =
  QCheck.Test.make ~count:100 ~name:"percentiles are monotone and within range"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.0 1000.0))
    (fun values ->
      let s = Stats.Sample_set.create () in
      List.iter (Stats.Sample_set.add s) values;
      let ps = [ 0.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let qs = List.map (Stats.Sample_set.percentile s) ps in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      monotone qs && List.for_all (fun q -> q >= lo -. 1e-9 && q <= hi +. 1e-9) qs)

(* Samples drawn from a small pool (so duplicates are common), both
   infinities, and a spread of finite values. *)
let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ infinity; neg_infinity; 0.0; 1.0; 2.5; 1e6 ]);
        (5, float_range (-1000.0) 1000.0);
      ])

let samples =
  QCheck.(make ~print:Print.(list float) Gen.(list_size (int_range 1 300) sample_gen))

let bits = Int64.bits_of_float

(* The sorted order and every percentile against [List.sort compare] and
   the documented interpolation, bit for bit. A set sorted once and then
   added to must re-sort, so the samples go in in two batches with a
   percentile read between them. *)
let sample_set_sort_matches_reference =
  QCheck.Test.make ~count:200 ~name:"sample_set: sort matches a reference sort" samples
    (fun values ->
      let s = Stats.Sample_set.create () in
      let half = List.length values / 2 in
      List.iteri (fun i x -> if i < half then Stats.Sample_set.add s x) values;
      ignore (Stats.Sample_set.median s);
      List.iteri (fun i x -> if i >= half then Stats.Sample_set.add s x) values;
      let reference = Array.of_list (List.sort compare values) in
      let n = Array.length reference in
      let reference_percentile p =
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = int_of_float (Float.ceil rank) in
        let frac = rank -. float_of_int lo in
        (reference.(lo) *. (1.0 -. frac)) +. (reference.(hi) *. frac)
      in
      List.for_all
        (fun p ->
          bits (Stats.Sample_set.percentile s p) = bits (reference_percentile p))
        [ 0.0; 1.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]
      && Array.map bits (Stats.Sample_set.to_sorted_array s) = Array.map bits reference)

(* [concat] keeps the running sum's association: a set built by
   concatenating parts has the samples, the mean and the percentiles of
   one built by adding the same samples in the same order, bit for bit —
   with the parts as drawn, with empty parts around and between them, and
   as a single part. Summing each part and then adding the partial sums
   gives another mean. *)
let sample_set_merge_mean_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"sample_set: merged mean equals direct adds bit for bit"
    QCheck.(
      triple
        (list (float_range (-1e6) 1e6))
        (list (float_range (-1e6) 1e6))
        (list (float_range (-1e6) 1e6)))
    (fun (xs, ys, zs) ->
      let of_list l =
        let s = Stats.Sample_set.create () in
        List.iter (Stats.Sample_set.add s) l;
        s
      in
      let direct = of_list (xs @ ys @ zs) in
      let n = Stats.Sample_set.count direct in
      let samples s = Array.init (Stats.Sample_set.count s) (Stats.Sample_set.get s) in
      let expected = Array.map bits (samples direct) in
      let same merged =
        Stats.Sample_set.count merged = n
        && Array.map bits (samples merged) = expected
        && bits (Stats.Sample_set.mean merged) = bits (Stats.Sample_set.mean direct)
        && List.for_all
             (fun p ->
               bits (Stats.Sample_set.percentile merged p)
               = bits (Stats.Sample_set.percentile direct p))
             [ 0.0; 50.0; 99.0; 100.0 ]
      in
      let concat parts = Stats.Sample_set.concat (Array.of_list (List.map of_list parts)) in
      (* [same] sorts [direct] on its first percentile read. *)
      let as_drawn = concat [ xs; ys; zs ]
      and with_empties = concat [ []; xs; []; ys; zs; [] ]
      and single = concat [ xs @ ys @ zs ] in
      same as_drawn && same with_empties && same single
      && Stats.Sample_set.count (Stats.Sample_set.concat [||]) = 0)

(* [partition] gives each tag the set that adds its samples one by one,
   part after part, bit for bit; wrong sizes are refused. *)
let sample_set_partition_matches_adds =
  QCheck.Test.make ~count:200 ~name:"sample_set: partition equals per-tag adds"
    QCheck.(
      pair
        (list (pair (int_bound 2) (float_range (-1e6) 1e6)))
        (list (pair (int_bound 2) (float_range (-1e6) 1e6))))
    (fun (xs, ys) ->
      let part l =
        let s = Stats.Sample_set.create () in
        List.iter (fun (_, x) -> Stats.Sample_set.add s x) l;
        (s, Bytes.of_seq (Seq.map (fun (k, _) -> Char.chr k) (List.to_seq l)))
      in
      let (px, tx) = part xs and (py, ty) = part ys in
      let direct k =
        let s = Stats.Sample_set.create () in
        List.iter (fun (k', x) -> if k' = k then Stats.Sample_set.add s x) (xs @ ys);
        s
      in
      let sizes = Array.init 3 (fun k -> Stats.Sample_set.count (direct k)) in
      let sets = Stats.Sample_set.partition [| px; py |] ~tags:[| tx; ty |] ~sizes in
      let samples s =
        Array.init (Stats.Sample_set.count s) (fun i -> bits (Stats.Sample_set.get s i))
      in
      let refused =
        try
          ignore
            (Stats.Sample_set.partition [| px; py |] ~tags:[| tx; ty |]
               ~sizes:(Array.map (fun n -> n + 1) sizes));
          false
        with Invalid_argument _ -> true
      in
      refused
      && List.for_all
           (fun k ->
             let d = direct k in
             samples sets.(k) = samples d
             && bits (Stats.Sample_set.mean sets.(k)) = bits (Stats.Sample_set.mean d))
           [ 0; 1; 2 ])

let throughput_windows () =
  let t = Stats.Throughput.create ~window_ms:1000.0 in
  Stats.Throughput.record t ~time_ms:100.0;
  Stats.Throughput.record t ~time_ms:900.0;
  Stats.Throughput.record t ~time_ms:1500.0;
  Stats.Throughput.record_n t ~time_ms:2500.0 3;
  check int "total" 6 (Stats.Throughput.total t);
  let series = Stats.Throughput.series t () in
  check int "three windows" 3 (List.length series);
  let tps = List.map snd series in
  check (Alcotest.list feq) "per-second rates" [ 2.0; 1.0; 3.0 ] tps;
  (* A window index comes from the time: NaN and infinity have none. *)
  List.iter
    (fun time_ms ->
      Alcotest.check_raises
        (Printf.sprintf "time_ms %g" time_ms)
        (Invalid_argument "Throughput.record: time must be non-negative and finite")
        (fun () -> Stats.Throughput.record t ~time_ms))
    [ -1.0; Float.nan; infinity ]

let throughput_empty_windows_included () =
  let t = Stats.Throughput.create ~window_ms:1000.0 in
  Stats.Throughput.record t ~time_ms:100.0;
  Stats.Throughput.record t ~time_ms:3_500.0;
  let series = Stats.Throughput.series t () in
  check int "four windows including empties" 4 (List.length series);
  check feq "empty window zero" 0.0 (List.nth series 1 |> snd)

let throughput_rejects_non_finite_window () =
  (* [nan <= 0.0] is false, so a bare sign check let a NaN window through
     to report NaN rates. *)
  List.iter
    (fun window_ms ->
      Alcotest.check_raises
        (Printf.sprintf "window_ms %g" window_ms)
        (Invalid_argument
           (Printf.sprintf
              "Throughput.create: window must be positive and finite (got %g)" window_ms))
        (fun () -> ignore (Stats.Throughput.create ~window_ms)))
    [ Float.nan; infinity; neg_infinity; 0.0; -1.0 ]

let series_diff_undiff =
  QCheck.Test.make ~count:100 ~name:"undiff inverts diff"
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-50.0) 50.0))
    (fun xs ->
      let a = Array.of_list xs in
      let rebuilt = Stats.Series.undiff ~first:a.(0) (Stats.Series.diff a) in
      Array.length rebuilt = Array.length a
      && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) a rebuilt)

let series_moving_average () =
  let out = Stats.Series.moving_average 2 [| 1.0; 3.0; 5.0; 7.0 |] in
  check (Alcotest.array fapprox) "trailing window" [| 1.0; 2.0; 4.0; 6.0 |] out

let series_autocorrelation_periodic () =
  let xs = Array.init 200 (fun i -> sin (float_of_int i *. Float.pi /. 10.0)) in
  let at_period = Stats.Series.autocorrelation xs 20 in
  let off_period = Stats.Series.autocorrelation xs 10 in
  check bool "high at period" true (at_period > 0.8);
  check bool "negative at half period" true (off_period < -0.5)

let series_split () =
  let xs = Array.init 10 float_of_int in
  let train, test = Stats.Series.split_at_fraction 0.8 xs in
  check int "train" 8 (Array.length train);
  check int "test" 2 (Array.length test);
  check feq "boundary" 8.0 test.(0)

let series_windows () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let pairs = Stats.Series.windows ~input:3 xs in
  check int "two pairs" 2 (Array.length pairs);
  let input, target = pairs.(1) in
  check (Alcotest.array feq) "window content" [| 2.0; 3.0; 4.0 |] input;
  check feq "target" 5.0 target

let suite =
  [
    Alcotest.test_case "summary: matches naive" `Quick summary_matches_naive;
    Alcotest.test_case "summary: empty" `Quick summary_empty;
    QCheck_alcotest.to_alcotest summary_merge;
    Alcotest.test_case "sample_set: percentiles" `Quick sample_set_percentiles;
    Alcotest.test_case "sample_set: unsorted input" `Quick sample_set_unsorted_input;
    Alcotest.test_case "sample_set: bounds" `Quick sample_set_bounds;
    Alcotest.test_case "sample_set: rejects NaN p" `Quick sample_set_rejects_nan;
    QCheck_alcotest.to_alcotest sample_set_percentile_property;
    Alcotest.test_case "throughput: windows" `Quick throughput_windows;
    Alcotest.test_case "throughput: empty windows" `Quick throughput_empty_windows_included;
    Alcotest.test_case "throughput: rejects non-finite window" `Quick
      throughput_rejects_non_finite_window;
    QCheck_alcotest.to_alcotest series_diff_undiff;
    Alcotest.test_case "series: moving average" `Quick series_moving_average;
    Alcotest.test_case "series: autocorrelation" `Quick series_autocorrelation_periodic;
    Alcotest.test_case "series: split" `Quick series_split;
    Alcotest.test_case "series: windows" `Quick series_windows;
    QCheck_alcotest.to_alcotest sample_set_sort_matches_reference;
    QCheck_alcotest.to_alcotest sample_set_merge_mean_bit_identical;
    QCheck_alcotest.to_alcotest sample_set_partition_matches_adds;
  ]
