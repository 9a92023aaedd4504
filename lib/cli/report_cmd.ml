(* `samya_cli report EXPERIMENT` — the self-contained run report: re-runs
   the experiment's systems with the full observability stack (sink, SLO
   monitor, flight recorder, hot-key sketch, watchdog) and renders one
   document per invocation — outcome, throughput timeline, SLO verdict,
   mechanism attribution, hot keys, and the watchdog incidents with the
   first incident's black-box bundle. `--format html` (the default)
   writes a single-file page with inline styles and an inline-SVG
   figure; `--format md` writes GitHub-flavoured markdown. *)

open Cmdliner

let run experiment quick jobs engine_jobs format out =
  Args.with_captures ~experiment ~quick ~jobs ~engine_jobs (fun captures ->
      let meta =
        {
          Harness.Run_report.experiment;
          quick;
          seed = Harness.Exp_common.seed;
        }
      in
      let render =
        match format with
        | `Html -> Harness.Run_report.html
        | `Md -> Harness.Run_report.markdown
      in
      let ext = match format with `Html -> "html" | `Md -> "md" in
      let path =
        Option.value out ~default:(Printf.sprintf "report-%s.%s" experiment ext)
      in
      Args.emit ~what:"run report" ~path (render meta captures);
      let incidents =
        List.fold_left
          (fun acc c -> acc + List.length c.Harness.Scenario.incidents)
          0 captures
      in
      Format.printf "report: %s (%d system%s, %d incident%s)@." path
        (List.length captures)
        (if List.length captures = 1 then "" else "s")
        incidents
        (if incidents = 1 then "" else "s");
      0)

let cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("html", `Html); ("md", `Md) ]) `Html
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Report format: $(b,html) (self-contained page) or $(b,md).")
  in
  let out =
    Args.out_path
      "Report output path (default report-$(i,EXPERIMENT).$(i,FORMAT))."
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Re-run an experiment with the full observability stack and write \
          a self-contained run report: outcomes, throughput timeline, SLO \
          verdict, mechanism attribution, hot-key telemetry and watchdog \
          incidents with the first black-box bundle. Deterministic: \
          byte-identical output at any --jobs level.")
    Term.(
      const run $ Args.traceable_experiment $ Args.quick $ Args.jobs
      $ Args.engine_jobs $ format $ out)
