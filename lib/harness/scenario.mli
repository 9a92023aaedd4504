(** Scenarios as data, and the one runner that executes them.

    Every open-loop experiment — the paper's figures ([table2b]/[fig3b],
    [fig3c] to [fig3f], the [ext1]/[ext2] sweep cells), the scenario
    experiments ([gateway], [retrystorm], [contention]) and the trace
    captures — is a request stream replayed against one or more {e arms},
    each arm a system plus driver-spec deltas. Everything else is shared
    plumbing, owned here: build the cluster and its facade, optionally
    subscribe a full observability sink, arm the always-on flight
    recorder, hot-key sketch and SLO monitor, inject the faults, run the
    {!Driver}, audit token conservation (a failure becomes an [Invariant]
    recorder event), and fold the {!Obs.Watchdog} verdict. A scenario
    module supplies only its data ({!plan}) and the rendering only it
    does ([report]). See DESIGN.md §4.1. *)

type system =
  | Samya of Samya.Config.t
      (** a Samya cluster the runner builds on the evaluation regions,
          registers the plan's entities on and audits after the run *)
  | Built of (unit -> Systems.facade)
      (** a system with its own entity (the paper's figures): built as
          is; a {!Hot} entity is audited through its facade *)

type arm = {
  id : string;  (** stable key for tests, docs and {!plan.traced} *)
  label : string;  (** row label in the scenario's own tables *)
  name : string;
      (** the system's name: the capture label of
          [trace]/[explain]/[slo]/[report] *)
  system : system;
  spec : Driver.spec -> Driver.spec;  (** the arm's driver-spec delta *)
}

type entities =
  | Hot of { entity : string; maximum : int }
      (** one entity, materialised at registration
          ({!Samya.Cluster.init_entity}) on {!Samya} arms and audited
          through the facade's [invariant] on every arm *)
  | Fleet of { count : int; name : int -> string; quota : int -> int }
      (** [count] keys bulk-registered cold
          ({!Samya.Cluster.register_entities}); key [0] is the facade's
          bound entity. Each key is audited on the cluster ({!Samya} arms
          only). *)

type capture = {
  arm : arm;
  cluster : Samya.Cluster.t option;  (** [Some] for {!Samya} arms *)
  sink : Obs.Sink.t option;  (** present when captured with [~observe] *)
  slo : Obs.Slo.t;
  result : Driver.result;
  stats : Systems.stats;
  flight : Obs.Flight_recorder.t;  (** the always-on black box *)
  hot : Obs.Heavy_hitters.Windowed.w;  (** request-path hot-key sketch *)
  violations : (string * string) list;
      (** [(entity, reason)] for every audited entity that failed token
          conservation, in registration order *)
  incidents : Obs.Watchdog.incident list;
      (** watchdog verdict over the recorder dump, default rules *)
}

type plan = {
  duration_ms : float;  (** measurement horizon *)
  requests : Trace.Workload.request array;  (** one stream, every arm *)
  entities : entities;
  faults : Chaos.Nemesis.fault list;
      (** crashes ([crash_site], then [recover_site]) and partitions
          ([partition], then [heal]), injected through the facade at their
          virtual times; an infinite [heal_ms] never undoes the fault. Any
          other kind raises [Invalid_argument] when the arm runs. *)
  window_ms : float;  (** SLO window and hot-key sketch window *)
  sketch_k : int;  (** Misra-Gries capacity of the hot-key sketch *)
  spec : Driver.spec -> Driver.spec;  (** scenario-wide driver delta *)
  arms : arm list;  (** in report order *)
  traced : string list;  (** ids of the arms the trace path captures *)
  report : Format.formatter -> capture list -> unit;
      (** renders the captures of every arm, in arm order *)
}
(** One scenario at one scale. *)

type t = {
  id : string;  (** experiment id (registry, CLI) *)
  paper_artifact : string;
  description : string;
  plan : Lab.context -> quick:bool -> plan;
      (** quick is the CI smoke scale, otherwise full *)
}

(** {1 Rendering shared by the scenario reports} *)

val series : capture -> (float * float) list
(** Committed throughput over the measurement horizon, in the driver's
    throughput windows (the empty boundary window trimmed). *)

val figure : Format.formatter -> title:string -> capture list -> unit
(** {!series}, one per arm (by label). *)

val verdict : capture -> string
(** Token conservation: ["OK"], or ["VIOLATED: "] and the first
    violation. *)

val conservation : Format.formatter -> capture list -> unit
(** One {!verdict} line per arm. *)

val slo_rows : capture -> string list list
(** The [samya-slo/1] report as table rows: objective, target, windows,
    violations, overall. *)

val find : capture list -> string -> capture
(** The capture whose arm has this label. Raises [Invalid_argument]
    naming the labels present if there is none. *)

(** {1 Running} *)

val capture : ?engine_jobs:int -> ?observe:bool -> plan -> arm -> capture
(** The runner: one arm end to end. [engine_jobs] (Samya arms) defaults
    to the process-wide {!Pool} setting; [observe] (default false)
    subscribes a full observability sink — the [explain]/[slo] path. *)

val arm : plan -> string -> arm
(** The arm with this id. Raises [Invalid_argument] if there is none. *)

val run : Lab.context -> quick:bool -> Format.formatter -> t -> unit
(** Every arm on the {!Pool}, then the scenario's report. *)

val trace : plan -> capture list
(** The traced arms, observed, in arm order, at the process-wide
    {!Pool} engine setting. Observed windows drain in parallel like
    any other, and the output is byte-identical at every
    [--engine-jobs]. *)

val paper :
  duration_ms:float ->
  requests:Trace.Workload.request array ->
  window_ms:float ->
  report:(Format.formatter -> capture list -> unit) ->
  (string * (unit -> Systems.facade)) list ->
  plan
(** A paper figure: one {!Built} arm per labelled builder (id, label and
    name are the label; every arm traced), the {!Hot} VM entity at
    {!Exp_common.maximum}, no faults, [window_ms] as both the driver's
    throughput window and the SLO/sketch window, and the driver's default
    30 s drain. Faults and further spec deltas are record updates. *)
