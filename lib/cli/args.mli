(** Argument terms shared by every subcommand of [samya_cli] and the bench
    runner, so both front ends parse [--quick]/[--jobs] (and their
    SAMYA_BENCH_* environment fallbacks) identically. *)

val quick : bool Cmdliner.Term.t
(** [--quick], or the env fallback SAMYA_BENCH_QUICK=1. *)

val jobs : int Cmdliner.Term.t
(** [--jobs N], the env fallback SAMYA_BENCH_JOBS, or the hardware
    parallelism. Always >= 1. *)

val engine_jobs : int Cmdliner.Term.t
(** [--engine-jobs N] or the env fallback SAMYA_ENGINE_JOBS: the worker
    domains draining each region-sharded simulation (default 1). Always
    >= 1; 0 and negative values are rejected with an error. *)

val metrics_out : string option Cmdliner.Term.t
(** [--metrics-out PATH]. *)

val traceable_experiment : string Cmdliner.Term.t
(** The EXPERIMENT positional shared by [trace]/[explain]/[slo]: one of
    {!Harness.Exp_trace.experiments}. *)

val out_path : ?flags:string list -> string -> string option Cmdliner.Term.t
(** An optional output-path option ([--out] unless [flags] overrides)
    with the given doc string. *)

val run_meta : experiment:string -> quick:bool -> (string * string) list
(** The metadata stamped into exported documents (experiment, horizon,
    seed) — identical across the exporting subcommands. *)

val with_captures :
  ?banner:string ->
  experiment:string ->
  quick:bool ->
  jobs:int ->
  engine_jobs:int ->
  (Harness.Scenario.capture list -> int) ->
  int
(** The trace-replay preamble shared by [trace]/[explain]/[slo]/[report]:
    set the worker pool and the engine worker count, build the lab
    context, run {!Harness.Exp_trace.run} and
    hand the captures to the continuation (printing the [== banner: … ==]
    header first when [banner] is given). Renders unknown-experiment
    errors and returns exit code 2 for them. *)

val write_file : path:string -> string -> unit

val emit : what:string -> path:string -> string -> unit
(** [write_file] plus the one-line "[what]: [path]" confirmation on
    stderr — the shared artifact-export epilogue of
    [trace]/[explain]/[slo]/[report]. *)
