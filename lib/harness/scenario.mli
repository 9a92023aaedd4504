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
    throughput windows. The window that starts at the horizon is left
    out: it holds drain-time commits of requests still in flight at the
    horizon. *)

val goodput : ?until_ms:float -> capture -> from_ms:float -> float
(** Mean of the {!series} windows that start in [\[from_ms, until_ms)]
    ([until_ms] defaults to the end); [0.0] if there are none. *)

val figure : Format.formatter -> title:string -> capture list -> unit
(** {!series}, one per arm (by label). *)

val verdict : capture -> string
(** Token conservation: ["OK"], or ["VIOLATED: "] and the first
    violation. *)

val conservation : Format.formatter -> capture list -> unit
(** One {!verdict} line per arm. *)

val slo_table : ?worst:bool -> capture -> string list * string list list
(** The [samya-slo/1] report as a table: header, then one row per
    objective (objective, target, windows, violations, overall). [worst]
    (default false) adds the worst window before [overall]; rates print
    as percentages with two decimals. *)

val slo_lines : ?aborts:bool -> Format.formatter -> capture list -> unit
(** One ["label: SLO healthy"] (or [VIOLATED]) line per arm; [aborts]
    (default false) appends the abort-class breakdown. *)

val recorder_line : ?rules:bool -> Format.formatter -> capture -> unit
(** The black box in one line: events recorded and dropped, watchdog
    incidents; [rules] (default false) appends their count by rule. *)

(** {2 Columns}

    A scenario's per-arm tables are column lists: a header and a fold
    over one capture. The header and every row come from the same list,
    so a row always has its header's length. *)

type column = string * (capture -> string)

val table : Format.formatter -> title:string -> column list -> capture list -> unit
(** One row per capture, in capture order. *)

val label : string -> column
(** The arm's label under this header: the first column of a per-arm
    table. *)

val count : string -> (capture -> int) -> column
(** An integer column. *)

(** The shared vocabulary, relabelled with [(header, snd column)]:
    driver outcomes, latency percentiles ([p50] is [percentile 50.0],
    headed ["p50"]), system counters ([switches] counts mechanism
    switches, [messages] messages sent), the token-conservation
    {!verdict} ([invariant]), the SLO verdict ([slo]: ["healthy"] or
    ["VIOLATED"]) and the black box: flight-recorder events [recorded]
    and [dropped], watchdog [incidents] and their count [by_rule] (["-"]
    if none). *)

val committed : column
val rejected : column
val unavailable : column
val no_reply : column
val shed : column
val timed_out : column
val retries : column
val avg_tps : column
val percentile : float -> column
val p50 : column
val p95 : column
val p99 : column
val redistributions : column
val borrows : column
val switches : column
val messages : column
val invariant : column
val slo : column
val recorded : column
val dropped : column
val incidents : column
val by_rule : column

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
