(* Rendering of a benchmark outcome: the stamp that makes two results
   comparable, the human-readable table, the results file and the final
   JSON line. *)

let schema = "samya-perfbench/1"

let stamp ~(workload : Workloads.t) ~seed ~trace ~host_cores ~commit =
  [
    ("workload", workload.Workloads.name);
    ("seed", Int64.to_string seed);
    ("engine_workers", "1");
    ("sub_seeds", string_of_int Runner.sub_seeds);
    ("host_cores", string_of_int host_cores);
    ("ocaml", Sys.ocaml_version);
    ("commit", commit);
    ("trace", if trace then "1" else "0");
  ]
  @ workload.Workloads.sizes

(* Fields that may differ between two comparable results: the seed (a
   different sample of the same workload) and the commit (the change
   being measured). *)
let free_fields = [ "seed"; "commit" ]

let value_string = function
  | Some v -> Printf.sprintf "%.17g" v
  | None -> "unmeasured"

let print oc ~stamp (outcome : Runner.outcome) =
  Printf.fprintf oc "stamp: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) stamp));
  List.iter (fun line -> Printf.fprintf oc "%s\n" line) outcome.Runner.notes;
  List.iter
    (fun (m : Runner.metric) ->
      Printf.fprintf oc "  %-36s %24s %s\n" m.Runner.name (value_string m.Runner.value)
        m.Runner.unit)
    outcome.Runner.metrics

let write oc ~stamp (outcome : Runner.outcome) =
  Printf.fprintf oc "%s\n" schema;
  List.iter (fun (k, v) -> Printf.fprintf oc "stamp %s %s\n" k v) stamp;
  List.iter
    (fun (m : Runner.metric) ->
      Printf.fprintf oc "metric %s %s %s\n" m.Runner.name (value_string m.Runner.value)
        m.Runner.unit)
    outcome.Runner.metrics

let json (outcome : Runner.outcome) =
  let entries =
    List.filter_map
      (fun (m : Runner.metric) ->
        Option.map
          (fun v ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Runner.name v
              m.Runner.unit)
          (Option.bind m.Runner.value (fun v -> if Float.is_finite v then Some v else None)))
      outcome.Runner.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (outcome.Runner.problems = [])
    outcome.Runner.attempted outcome.Runner.failed (String.concat ", " entries)

(* Results files *)

let read_file path =
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match lines with
  | first :: rest when first = schema ->
      List.fold_left
        (fun (stamp, metrics) line ->
          match String.split_on_char ' ' line with
          | [ "stamp"; k; v ] -> ((k, v) :: stamp, metrics)
          | [ "metric"; name; value; unit ] -> (stamp, (name, (value, unit)) :: metrics)
          | _ -> (stamp, metrics))
        ([], []) rest
      |> fun (stamp, metrics) -> Ok (List.rev stamp, List.rev metrics)
  | _ -> Error (path ^ ": not a " ^ schema ^ " results file")

(* The stamp fields on which two results disagree, the free ones aside. *)
let incomparable a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.filter_map
    (fun k ->
      if List.mem k free_fields then None
      else
        let va = List.assoc_opt k a and vb = List.assoc_opt k b in
        if va = vb then None
        else
          let show = Option.value ~default:"-" in
          Some (Printf.sprintf "%s: %s vs %s" k (show va) (show vb)))
    keys

let compare_files path_a path_b =
  match (read_file path_a, read_file path_b) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      2
  | Ok (stamp_a, metrics_a), Ok (stamp_b, metrics_b) -> (
      match incomparable stamp_a stamp_b with
      | _ :: _ as diffs ->
          print_endline "not comparable:";
          List.iter (fun d -> print_endline ("  " ^ d)) diffs;
          3
      | [] ->
          List.iter
            (fun (name, (va, unit)) ->
              match List.assoc_opt name metrics_b with
              | None -> Printf.printf "  %-36s %s -> missing\n" name va
              | Some (vb, _) -> (
                  match (float_of_string_opt va, float_of_string_opt vb) with
                  | Some x, Some y when x <> 0.0 ->
                      Printf.printf "  %-36s %s -> %s %s (x%.3f)\n" name va vb unit (y /. x)
                  | _ -> Printf.printf "  %-36s %s -> %s %s\n" name va vb unit))
            metrics_a;
          0)
