(* `samya_cli explain EXPERIMENT` — causal critical-path analysis: re-runs
   the experiment's systems under tracing and attributes each traced
   request's latency to named components (client WAN legs, queueing,
   protocol phases, replication hops, CPU backlog, local service). *)

open Cmdliner

let run experiment quick jobs engine_jobs slowest by_mechanism out =
  Args.with_captures ~banner:"explain" ~experiment ~quick ~jobs ~engine_jobs
    (fun captures ->
      Harness.Exp_trace.explain Format.std_formatter ~by_mechanism ~slowest
        captures;
      Option.iter
        (fun path ->
          Args.emit ~what:"explain report" ~path
            (Format.asprintf "%t" (fun fmt ->
                 Harness.Exp_trace.explain fmt ~by_mechanism ~slowest captures)))
        out;
      0)

let cmd =
  let slowest =
    Arg.(
      value & opt int 5
      & info [ "slowest" ] ~docv:"N"
          ~doc:"Show the N slowest traced requests with their critical paths.")
  in
  let by_mechanism =
    Arg.(
      value & flag
      & info [ "mechanism" ]
          ~doc:
            "Additionally fold the attribution by token-movement mechanism \
             (borrow / redistribute / controller) and serving layer.")
  in
  let out = Args.out_path "Also write the rendered attribution to $(docv)." in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run an experiment under causal tracing and attribute request \
          latency to named components (WAN legs, queueing, protocol phases, \
          replication, service). Deterministic: byte-identical output at \
          any --jobs level.")
    Term.(
      const run $ Args.traceable_experiment $ Args.quick $ Args.jobs
      $ Args.engine_jobs $ slowest $ by_mechanism $ out)
