(* `samya_cli slo EXPERIMENT` — online SLO monitoring: re-runs the
   experiment's systems with the driver feeding per-window latency
   sketches and abort-rate counters, then reports each objective's
   violation windows. `--out` writes the samya-slo/1 document (the CI
   artifact). A violated objective fails the command (exit 1) so CI
   pipelines gate on it by default; `--no-fail` keeps the report
   advisory. *)

open Cmdliner

let run experiment quick jobs engine_jobs out no_fail =
  Args.with_captures ~banner:"slo" ~experiment ~quick ~jobs ~engine_jobs (fun captures ->
      Harness.Exp_trace.slo_summary Format.std_formatter captures;
      Option.iter
        (fun path ->
          Args.emit ~what:"slo report" ~path
            (Harness.Exp_trace.slo_json
               ~meta:(Args.run_meta ~experiment ~quick)
               captures))
        out;
      let unhealthy =
        List.filter
          (fun c ->
            not (Obs.Slo.healthy (Obs.Slo.report c.Harness.Scenario.slo)))
          captures
      in
      if unhealthy <> [] then begin
        Format.eprintf "slo: %d system(s) in violation: %s@."
          (List.length unhealthy)
          (String.concat ", "
             (List.map (fun c -> c.Harness.Scenario.arm.Harness.Scenario.name) unhealthy));
        if no_fail then 0 else 1
      end
      else 0)

let cmd =
  let out = Args.out_path "Also write the samya-slo/1 JSON report to $(docv)." in
  let no_fail =
    Arg.(
      value & flag
      & info [ "no-fail" ]
          ~doc:
            "Exit zero even when an objective is violated (the report is \
             advisory; without this flag any breach exits 1).")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Re-run an experiment with online SLO monitoring (windowed \
          p50/p95/p99 latency quantile sketches plus abort rate) and \
          report violation windows per system. Exits non-zero on any \
          violated objective unless $(b,--no-fail) is given.")
    Term.(
      const run $ Args.traceable_experiment $ Args.quick $ Args.jobs
      $ Args.engine_jobs $ out $ no_fail)
