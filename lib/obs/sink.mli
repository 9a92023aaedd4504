(** An observability sink bundles one trace log and one metric registry
    over the same lanes — the unit a system's [subscribe] hands out.

    The {!port} half solves the wiring-order problem: instrumented modules
    (request handler, protocol driver, controller) are constructed before
    anyone decides whether to observe the run, so they hold a [port] — a
    late-bound slot with two independent halves: a sink may be attached to
    it afterwards, and the always-on incident layer
    ({!Flight_recorder.attachment}) armed on it. Until then {!tap} and
    {!flight} are [None] and the instrumented hot paths pay one load and
    one branch. *)

type t = { log : Trace_log.t; metrics : Metrics.t }

val create : Lane_log.clock -> t

(** {2 Late-bound subscription} *)

type port

val port : unit -> port
(** Fresh unattached slot. *)

val attach : port -> t -> unit
(** Attach a sink; replaces any previous attachment. *)

val detach : port -> unit

val tap : port -> t option
(** The attached sink, if any — the single check on instrumented paths. *)

val arm : port -> Flight_recorder.attachment -> unit
(** Arm the incident layer; replaces any previous attachment. *)

val disarm : port -> unit

val flight : port -> Flight_recorder.attachment option
(** The armed incident layer, if any — the single check on its write
    paths. *)

val record : port -> Trace_log.event -> unit
(** Append to the attached sink's trace log; a no-op while unattached.
    The caller builds the event either way, so allocation-guarded paths
    match on {!tap} instead. *)
