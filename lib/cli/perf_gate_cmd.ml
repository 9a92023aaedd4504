(* `samya_cli perf-gate` — CI perf-regression gate. Compares a current
   benchmark run against a committed baseline and fails when a metric
   regresses past its tolerance factor. Reads either results format:

   - samya-bench/1  (bench --json):       micro[].{name, ns_per_run},
     experiments[].{id, wall_s}, and the run configuration
     (jobs/engine_jobs/quick/host_cores) as top-level fields
   - samya-metrics/1 (bench --metrics-out): gauges "micro.ns_per_run/<name>"
     and "bench.wall_s/<id>", configuration in "meta"

   Micro ns/run numbers compare unconditionally. Wall times compare only
   when the two runs are comparable — same --jobs, same --engine-jobs,
   same --quick; otherwise the wall section is skipped with a printed
   note, because "4 worker domains vs 1" is a configuration change, not a
   regression. `--trend ID:FACTOR` is the inverse check for the sharded
   engine: it *expects* the runs to differ in engine_jobs and asserts the
   current (sharded) run beats the baseline wall time by FACTOR, skipping
   with a note when the current host lacks the cores to demonstrate it.

   Tolerances are deliberately loose (default 3x): CI machines are noisy,
   and the gate exists to catch order-of-magnitude mistakes (accidental
   allocation in a hot loop, a debug build), not 10% drift. *)

open Cmdliner

let micro_prefix = "micro.ns_per_run/"
let wall_prefix = "bench.wall_s/"

type results = {
  micro : (string * float) list;
  walls : (string * float) list;  (* experiment id -> wall seconds *)
  jobs : int option;
  engine_jobs : int option;
  quick : bool option;
  host_cores : int option;
}

let num_member name json =
  match Obs.Export.member name json with
  | Some (Obs.Export.Num v) -> Some (int_of_float v)
  | _ -> None

let bool_member name json =
  match Obs.Export.member name json with
  | Some (Obs.Export.Bool b) -> Some b
  | _ -> None

(* samya-metrics/1 meta values are all strings. *)
let meta_int meta name =
  match Obs.Export.member name meta with
  | Some (Obs.Export.Str s) -> int_of_string_opt s
  | _ -> None

let meta_bool meta name =
  match Obs.Export.member name meta with
  | Some (Obs.Export.Str s) -> bool_of_string_opt s
  | _ -> None

let gauges_with ~prefix sections =
  let collect acc section =
    match Obs.Export.member "gauges" section with
    | Some (Obs.Export.Obj gauges) ->
        List.fold_left
          (fun acc (name, value) ->
            if String.starts_with ~prefix name then
              match Obs.Export.member "last" value with
              | Some (Obs.Export.Num v) ->
                  ( String.sub name (String.length prefix)
                      (String.length name - String.length prefix),
                    v )
                  :: acc
              | _ -> acc
            else acc)
          acc gauges
    | _ -> acc
  in
  List.rev (List.fold_left collect [] sections)

(* Parse either schema into [results]; Error on unparseable input. *)
let read_results source text =
  match Obs.Export.parse text with
  | Error e -> Error (Printf.sprintf "%s: %s" source e)
  | Ok json -> (
      match Obs.Export.member "schema" json with
      | Some (Obs.Export.Str "samya-bench/1") ->
          let entries name =
            match Obs.Export.member name json with
            | Some (Obs.Export.Arr entries) -> entries
            | _ -> []
          in
          let micro =
            List.filter_map
              (fun entry ->
                match
                  ( Obs.Export.member "name" entry,
                    Obs.Export.member "ns_per_run" entry )
                with
                | Some (Obs.Export.Str name), Some (Obs.Export.Num ns) ->
                    Some (name, ns)
                | _ -> None)
              (entries "micro")
          in
          let walls =
            List.filter_map
              (fun entry ->
                match
                  (Obs.Export.member "id" entry, Obs.Export.member "wall_s" entry)
                with
                | Some (Obs.Export.Str id), Some (Obs.Export.Num s) -> Some (id, s)
                | _ -> None)
              (entries "experiments")
          in
          Ok
            {
              micro;
              walls;
              jobs = num_member "jobs" json;
              engine_jobs = num_member "engine_jobs" json;
              quick = bool_member "quick" json;
              host_cores = num_member "host_cores" json;
            }
      | Some (Obs.Export.Str "samya-metrics/1") ->
          let sections =
            match Obs.Export.member "sections" json with
            | Some (Obs.Export.Arr sections) -> sections
            | _ -> []
          in
          let meta =
            Option.value (Obs.Export.member "meta" json)
              ~default:(Obs.Export.Obj [])
          in
          Ok
            {
              micro = gauges_with ~prefix:micro_prefix sections;
              walls = gauges_with ~prefix:wall_prefix sections;
              jobs = meta_int meta "jobs";
              engine_jobs = meta_int meta "engine_jobs";
              quick = meta_bool meta "quick";
              host_cores = meta_int meta "host_cores";
            }
      | Some (Obs.Export.Str schema) ->
          Error (Printf.sprintf "%s: unsupported schema %S" source schema)
      | _ -> Error (Printf.sprintf "%s: missing \"schema\" field" source))

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Comparability: wall times mean the same thing only when both runs used
   the same parallelism and scale settings. [None] = comparable;
   [Some reason] = skip wall comparisons and say why. *)

let opt_str to_s = function None -> "unknown" | Some v -> to_s v

let incomparability baseline current =
  let differs what to_s a b =
    match (a, b) with
    | Some a, Some b when a = b -> None
    | None, None -> None
    | a, b ->
        Some (Printf.sprintf "%s differ (%s vs %s)" what (opt_str to_s a) (opt_str to_s b))
  in
  match differs "quick" string_of_bool baseline.quick current.quick with
  | Some _ as r -> r
  | None -> (
      match differs "jobs" string_of_int baseline.jobs current.jobs with
      | Some _ as r -> r
      | None ->
          differs "engine-jobs" string_of_int baseline.engine_jobs
            current.engine_jobs)

(* ------------------------------------------------------------------ *)

let check_micro ~tolerance ~failures baseline current =
  Format.printf "perf gate: %d baseline micro metric(s), tolerance %.2fx@."
    (List.length baseline.micro) tolerance;
  List.iter
    (fun (name, base_ns) ->
      match List.assoc_opt name current.micro with
      | None ->
          incr failures;
          Format.printf
            "  MISSING  %-45s baseline %.1f ns/run, absent from current run@."
            name base_ns
      | Some ns ->
          let ratio = if base_ns > 0.0 then ns /. base_ns else 1.0 in
          if ratio > tolerance then begin
            incr failures;
            Format.printf "  FAIL     %-45s %.1f -> %.1f ns/run (%.2fx > %.2fx)@."
              name base_ns ns ratio tolerance
          end
          else
            Format.printf "  ok       %-45s %.1f -> %.1f ns/run (%.2fx)@." name
              base_ns ns ratio)
    baseline.micro

let check_walls ~wall_tolerance ~failures baseline current =
  match (baseline.walls, current.walls) with
  | [], _ | _, [] -> ()
  | walls, _ -> (
      match incomparability baseline current with
      | Some reason ->
          Format.printf
            "perf gate: wall-time comparison skipped: %s (not a regression \
             signal)@."
            reason
      | None ->
          Format.printf "perf gate: %d wall time(s), tolerance %.2fx@."
            (List.length walls) wall_tolerance;
          List.iter
            (fun (id, base_s) ->
              match List.assoc_opt id current.walls with
              | None ->
                  Format.printf
                    "  note     wall %-40s absent from current run@." id
              | Some s ->
                  let ratio = if base_s > 0.0 then s /. base_s else 1.0 in
                  if ratio > wall_tolerance then begin
                    incr failures;
                    Format.printf
                      "  FAIL     wall %-40s %.3f -> %.3f s (%.2fx > %.2fx)@." id
                      base_s s ratio wall_tolerance
                  end
                  else
                    Format.printf "  ok       wall %-40s %.3f -> %.3f s (%.2fx)@."
                      id base_s s ratio)
            walls)

(* --trend ID:FACTOR — the sharded-engine speedup target. The baseline is
   the reference run (one engine worker), the current file the one with
   more worker domains;
   anything that would make the wall times incomparable *other than*
   engine-jobs skips the check, as does a current host with fewer cores
   than worker domains (it cannot demonstrate parallel speedup). *)
let check_trend ~failures ~trend baseline current =
  match trend with
  | None -> ()
  | Some (id, factor) -> (
      let skip reason =
        Format.printf "perf gate: trend %s skipped: %s@." id reason
      in
      let differs what to_s a b =
        match (a, b) with
        | Some a, Some b when a = b -> None
        | None, None -> None
        | a, b ->
            Some
              (Printf.sprintf "%s differ (%s vs %s)" what (opt_str to_s a)
                 (opt_str to_s b))
      in
      match
        ( List.assoc_opt id baseline.walls,
          List.assoc_opt id current.walls,
          differs "quick" string_of_bool baseline.quick current.quick,
          differs "jobs" string_of_int baseline.jobs current.jobs )
      with
      | None, _, _, _ -> skip "no baseline wall time"
      | _, None, _, _ -> skip "no current wall time"
      | _, _, Some reason, _ | _, _, _, Some reason -> skip reason
      | Some base_s, Some cur_s, None, None -> (
          match (current.engine_jobs, current.host_cores) with
          | Some ej, Some cores when cores < ej ->
              skip
                (Printf.sprintf
                   "current host has %d core(s) for %d engine worker(s)" cores ej)
          | _ ->
              let speedup = if cur_s > 0.0 then base_s /. cur_s else infinity in
              if speedup >= factor then
                Format.printf
                  "  ok       trend %-39s %.3f -> %.3f s (%.2fx >= %.2fx)@." id
                  base_s cur_s speedup factor
              else begin
                incr failures;
                Format.printf
                  "  FAIL     trend %-39s %.3f -> %.3f s (%.2fx < %.2fx)@." id
                  base_s cur_s speedup factor
              end))

let run baseline_path current_path tolerance wall_tolerance trend =
  let ( let* ) r f =
    match r with
    | Error e ->
        Format.eprintf "error: %s@." e;
        2
    | Ok v -> f v
  in
  let* baseline_text = read_file baseline_path in
  let* current_text = read_file current_path in
  let* baseline = read_results baseline_path baseline_text in
  let* current = read_results current_path current_text in
  if baseline.micro = [] && trend = None then begin
    Format.eprintf "error: %s: no micro benchmark metrics@." baseline_path;
    2
  end
  else begin
    let failures = ref 0 in
    if baseline.micro <> [] then
      check_micro ~tolerance ~failures baseline current;
    check_walls ~wall_tolerance ~failures baseline current;
    check_trend ~failures ~trend baseline current;
    if !failures > 0 then begin
      Format.printf "perf gate: FAILED (%d regression(s))@." !failures;
      1
    end
    else begin
      Format.printf "perf gate: passed@.";
      0
    end
  end

let trend_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i when i > 0 && i < String.length s - 1 -> (
        let id = String.sub s 0 i in
        let factor = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt factor with
        | Some f when f > 0.0 -> Ok (id, f)
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "bad trend factor %S" factor)))
    | _ -> Error (`Msg (Printf.sprintf "expected ID:FACTOR, got %S" s))
  in
  let print fmt (id, f) = Format.fprintf fmt "%s:%g" id f in
  Arg.conv (parse, print)

let cmd =
  let baseline =
    Arg.(
      required
      & opt (some file) None
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:"Committed baseline (samya-bench/1 or samya-metrics/1).")
  in
  let current =
    Arg.(
      required
      & opt (some file) None
      & info [ "current" ] ~docv:"PATH"
          ~doc:"Results of the current run (samya-bench/1 or samya-metrics/1).")
  in
  let tolerance =
    Arg.(
      value & opt float 3.0
      & info [ "tolerance" ] ~docv:"FACTOR"
          ~doc:
            "Maximum allowed current/baseline ns-per-run ratio before the \
             gate fails.")
  in
  let wall_tolerance =
    Arg.(
      value & opt float 4.0
      & info [ "wall-tolerance" ] ~docv:"FACTOR"
          ~doc:
            "Maximum allowed current/baseline experiment wall-time ratio. \
             Only enforced when both runs used the same --quick/--jobs/\
             --engine-jobs configuration; otherwise the comparison is \
             skipped with a note.")
  in
  let trend =
    Arg.(
      value
      & opt (some trend_conv) None
      & info [ "trend" ] ~docv:"ID:FACTOR"
          ~doc:
            "Require the current run's wall time for experiment $(i,ID) to \
             beat the baseline's by at least $(i,FACTOR)x (the sharded-\
             engine speedup target, e.g. $(b,fig3g:5)). Skipped with a note \
             when the runs differ in --quick/--jobs or the current host has \
             fewer cores than --engine-jobs workers.")
  in
  Cmd.v
    (Cmd.info "perf-gate"
       ~doc:
         "Compare micro benchmark ns/run results against a committed \
          baseline; exit non-zero if any metric regressed past the \
          tolerance factor.")
    Term.(const run $ baseline $ current $ tolerance $ wall_tolerance $ trend)
