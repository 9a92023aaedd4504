(** Index of every reproducible table and figure, keyed by the experiment
    ids used in DESIGN.md, the bench harness and the CLI. The open-loop
    paper figures ([table2b], its alias [fig3b], [fig3c] to [fig3f]) and
    the scenario experiments are rows of {!Scenario.t} plans; the rest
    ([fig3a], [table2a], the closed-loop [fig3g]/[fig3h], the [ext1]/[ext2]
    sweeps and [chaos]) render through their own [run]. *)

type experiment = {
  id : string;
  paper_artifact : string;  (** e.g. "Table 2b" *)
  description : string;
  run : Lab.context -> quick:bool -> Format.formatter -> unit;
}

val scenarios : Scenario.t list
(** The scenario experiments ([gateway], [retrystorm], [contention]):
    their registry rows, and the traceable scenarios of {!Exp_trace}. *)

val all : experiment list

val find : string -> experiment option

val ids : unit -> string list

val validate : string list -> (experiment list, string) result
(** Resolve a list of requested ids up front; [Error] names the first
    unknown id, so a typo fails before any experiment runs. *)

val run_by_id : Lab.context -> quick:bool -> Format.formatter -> string -> (unit, string) result

type rendered = {
  experiment : experiment;
  output : string;  (** everything the experiment wrote to its formatter *)
  seconds : float;  (** wall-clock spent inside the run, per [time] *)
}

val run_many :
  ?time:(unit -> float) -> Lab.context -> quick:bool -> experiment list -> rendered list
(** Run the experiments on the {!Pool} (inline when [Pool.jobs () = 1]),
    each rendering into a private buffer, and return the captured outputs
    {e in submission order} — printing them in sequence is byte-identical
    to a sequential run. [time] supplies wall-clock timestamps (default:
    always [0.], i.e. timing disabled); the harness takes it as a
    parameter so the library itself needs no clock dependency. *)
