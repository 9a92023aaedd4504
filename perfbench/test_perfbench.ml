(* The benchmark's own tests, on shrunken workloads: every metric named
   in BENCHMARK.json is printed for every workload, metric names are
   well-formed, and the seed drives the inputs — two seeds give two
   streams, one seed gives identical virtual-time metrics. *)

open Perfbench

let benchmark_json = Filename.concat Filename.parent_dir_name "BENCHMARK.json"

let find_from s i pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1)
  in
  go i

(* The "name" values of one top-level array of BENCHMARK.json. *)
let declared key =
  let json = In_channel.with_open_text benchmark_json In_channel.input_all in
  let start =
    match find_from json 0 ("\"" ^ key ^ "\"") with
    | Some i -> i
    | None -> Alcotest.failf "BENCHMARK.json has no %s" key
  in
  let stop = String.index_from json start ']' in
  let rec names i acc =
    match find_from json i "\"name\"" with
    | Some j when j < stop ->
        let q1 = String.index_from json (j + 6) '"' in
        let q2 = String.index_from json (q1 + 1) '"' in
        names (q2 + 1) (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
    | _ -> List.rev acc
  in
  names start []

let well_formed name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let printed (o : Runner.outcome) = List.map (fun (m : Runner.metric) -> m.Runner.name) o.Runner.metrics

let sorted = List.sort compare

let workloads = Workloads.all ~smoke:true

let test_names_well_formed () =
  List.iter
    (fun name ->
      if not (well_formed name) then Alcotest.failf "metric name %S is malformed" name)
    (declared "end_to_end" @ declared "per_layer")

let test_workloads_declared () =
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Workloads.name) workloads)
    (declared "workloads")

let test_end_to_end w () =
  let o = Runner.measure w ~seed:3L ~seconds:0.0 in
  Alcotest.(check (list string)) "checks pass" [] o.Runner.problems;
  Alcotest.(check (list string))
    "every end-to-end metric printed" (sorted (declared "end_to_end")) (sorted (printed o))

let test_per_layer w () =
  let o = Runner.trace w ~seed:3L in
  Alcotest.(check (list string))
    "every per-layer metric printed" (sorted (declared "per_layer")) (sorted (printed o))

let test_seed_drives_inputs w () =
  let stream seed = (w.Workloads.generate ~seed).Workloads.requests in
  Alcotest.(check bool) "same seed, same stream" true (stream 5L = stream 5L);
  Alcotest.(check bool) "other seed, other stream" false (stream 5L = stream 6L);
  let fingerprint seed = Runner.fingerprint (Runner.run_once w ~seed ~jobs:1 ~armed:true ~traced:false) in
  Alcotest.(check string) "same seed, same virtual metrics" (fingerprint 5L) (fingerprint 5L)

let per_workload =
  List.concat_map
    (fun w ->
      let case name f = Alcotest.test_case (w.Workloads.name ^ ": " ^ name) `Quick (f w) in
      [
        case "end-to-end metrics" test_end_to_end;
        case "per-layer metrics" test_per_layer;
        case "seed drives inputs" test_seed_drives_inputs;
      ])
    workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "declaration",
        [
          Alcotest.test_case "metric names well-formed" `Quick test_names_well_formed;
          Alcotest.test_case "workloads declared" `Quick test_workloads_declared;
        ] );
      ("workloads", per_workload);
    ]
