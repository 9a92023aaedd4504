open Cmdliner

let run experiment quick jobs engine_jobs out metrics_out =
  Args.with_captures ~experiment ~quick ~jobs ~engine_jobs (fun captures ->
      let out =
        Option.value out ~default:(Printf.sprintf "trace-%s.json" experiment)
      in
      let trace = Harness.Exp_trace.trace_json captures in
      Args.write_file ~path:out trace;
      Harness.Exp_trace.summary Format.std_formatter captures;
      (match metrics_out with
      | Some path ->
          Args.emit ~what:"metrics" ~path
            (Harness.Exp_trace.metrics_json
               ~meta:(Args.run_meta ~experiment ~quick)
               captures)
      | None -> ());
      match Obs.Export.validate_trace trace with
      | Ok events ->
          Format.printf
            "trace: %s (%d events, load in chrome://tracing or ui.perfetto.dev)@."
            out events;
          0
      | Error reason ->
          Format.eprintf "error: emitted trace failed validation: %s@." reason;
          1)

let cmd =
  let out =
    Args.out_path ~flags:[ "out"; "o" ]
      "Trace output path (default trace-$(i,EXPERIMENT).json)."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Re-run an experiment with full observability and export a \
          Chrome-loadable trace_event JSON (plus optional metrics JSON). \
          Deterministic: same seed and experiment give a byte-identical \
          trace at any --jobs level.")
    Term.(
      const run $ Args.traceable_experiment $ Args.quick $ Args.jobs
      $ Args.engine_jobs $ out $ Args.metrics_out)
