open Cmdliner

(* The env fallbacks are resolved by hand rather than with [Arg.info ~env]:
   SAMYA_BENCH_QUICK=1 predates this module and cmdliner's boolean env
   parser only accepts true/false. *)

let quick =
  let flag =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Short durations (smoke mode; env SAMYA_BENCH_QUICK=1).")
  in
  Term.(
    const (fun explicit ->
        explicit || Sys.getenv_opt "SAMYA_BENCH_QUICK" = Some "1")
    $ flag)

let jobs =
  let opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for independent trials (env SAMYA_BENCH_JOBS; \
             default: hardware parallelism). Output is identical for any N.")
  in
  let resolve = function
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (Printf.sprintf "--jobs expects a positive integer, got %d" n)
    | None -> (
        match Sys.getenv_opt "SAMYA_BENCH_JOBS" with
        | None -> Ok (Harness.Pool.default_jobs ())
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 1 -> Ok n
            | Some _ | None ->
                Error
                  (Printf.sprintf
                     "SAMYA_BENCH_JOBS must be a positive integer, got %S" v)))
  in
  Term.term_result' Term.(const resolve $ opt)

let engine_jobs =
  let opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "engine-jobs" ] ~docv:"N"
          ~doc:
            "Worker domains draining the region-sharded simulation's \
             per-region lanes (env SAMYA_ENGINE_JOBS; default 1). Output is \
             identical for any N >= 1; wall time is what changes.")
  in
  let resolve = function
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error (Printf.sprintf "--engine-jobs expects a positive integer, got %d" n)
    | None -> (
        match Sys.getenv_opt "SAMYA_ENGINE_JOBS" with
        | None -> Ok 1
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 1 -> Ok n
            | Some _ | None ->
                Error
                  (Printf.sprintf
                     "SAMYA_ENGINE_JOBS must be a positive integer, got %S" v)))
  in
  Term.term_result' Term.(const resolve $ opt)

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:"Also write the flat metrics JSON (samya-metrics/1) to $(docv).")

(* The trace-replay subcommands (trace / explain / slo) share their whole
   front matter: the EXPERIMENT positional, an optional output path, the
   run metadata stamped into exported documents, and the capture preamble
   (worker pool, lab context, the Exp_trace dispatch with its error
   rendering). Factored here so the three commands cannot drift. *)

let traceable_experiment =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          (Printf.sprintf "Traceable experiment: %s."
             (String.concat ", " Harness.Exp_trace.experiments)))

let out_path ?(flags = [ "out" ]) doc =
  Arg.(value & opt (some string) None & info flags ~docv:"PATH" ~doc)

let run_meta ~experiment ~quick =
  [
    ("experiment", experiment);
    ("quick", string_of_bool quick);
    ("seed", Int64.to_string Harness.Exp_common.seed);
  ]

let with_captures ?banner ~experiment ~quick ~jobs ~engine_jobs f =
  Harness.Pool.set_jobs jobs;
  Harness.Pool.set_engine_jobs engine_jobs;
  Format.eprintf "jobs: %d@." jobs;
  let ctx = Harness.Lab.create () in
  match Harness.Exp_trace.run ctx ~quick ~experiment with
  | Error message ->
      Format.eprintf "error: %s@." message;
      2
  | Ok captures ->
      Option.iter
        (fun command ->
          Format.printf "== %s: %s (%s horizon, seed %Ld) ==@." command
            experiment
            (if quick then "quick" else "full")
            Harness.Exp_common.seed)
        banner;
      f captures

let write_file ~path contents =
  let channel = open_out path in
  output_string channel contents;
  close_out channel

(* One spelling for "wrote an artifact": every exporting subcommand
   (trace/explain/slo/report) writes the file and confirms on stderr, so
   stdout stays grep-clean for the summaries. *)
let emit ~what ~path contents =
  write_file ~path contents;
  Format.eprintf "%s: %s@." what path
