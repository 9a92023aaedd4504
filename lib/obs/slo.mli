(** SLO monitor over tumbling windows, as a fold over per-window cells.

    Every client-visible outcome is fed in: committed requests with their
    latency, aborted ones (rejected / unavailable / shed / timeout) bare.
    A sample is stamped with its virtual time since the run's start,
    [now_ms -. start_ms], and lands in the {e cell} of its window: window
    [k] holds the stamps [s] with [floor (s / window_ms) = k], i.e.
    [[k * window_ms, (k+1) * window_ms)] past the start (default 10 s).
    A cell holds the window's {!Quantile_sketch}, its commit count
    and its abort count; abort classes are tallied beside the cells.
    Writing is one window-index computation, one bucket increment and a
    counter — no allocation per sample once the window's cell exists.

    Cells are evaluated at {!flush} / {!report}, in window-index order,
    against every objective: a latency objective is violated when the
    window's sketch quantile exceeds its target, an abort-rate objective
    when the window's abort fraction exceeds its cap. Windows with no
    traffic have no cell, and neither pass nor fail.

    {b Merge contract.} Every sample goes through a {!Feed.t}. Writers
    that run concurrently (one per client slot, on different lanes) each
    write their own feed; after the run the feeds are {!absorb}ed. A
    window's cells merge by summing counts and {!Quantile_sketch.merge},
    which is exact, so the absorbed monitor reports — lines,
    {!abort_classes}, and the sequence of {!on_violation} calls with
    their stamps and values — exactly what one monitor fed the same
    samples in time order reports, whatever the absorption order or the
    domain count. *)

type objective =
  | Latency of { name : string; q : float; target_ms : float }
  | Abort_rate of { name : string; max_rate : float }

val default_objectives : objective list
(** p50 ≤ 250 ms, p95 ≤ 2 s, p99 ≤ 10 s, abort rate ≤ 5% — chosen so a
    system that serves most operations locally passes and one paying a
    WAN round (or shedding) per operation does not. *)

type t

val create : ?window_ms:float -> ?objectives:objective list -> unit -> t
(** Raises [Invalid_argument] unless [window_ms] is positive and finite. *)

val window_ms : t -> float

(** One writer's cells. A feed is written by one lane only. *)
module Feed : sig
  type t

  val commit : t -> start_ms:float -> now_ms:float -> latency_ms:float -> unit
  (** A commit replied at [now_ms] in a run that began at [start_ms]. All
      writers of one monitor pass the same [start_ms]. *)

  val abort : t -> cls:string -> start_ms:float -> now_ms:float -> unit
  (** As {!commit}, for an abort. [cls] attributes the abort to a cause
      ("rejected", "unavailable", "shed", "timeout", ...) for
      {!abort_classes}; [""] leaves it unattributed. It does not affect
      any objective. *)
end

val feed : t -> Feed.t
(** A fresh, empty feed on the monitor's windows. *)

val absorb : t -> Feed.t -> unit
(** Move the feed's cells and abort classes into the monitor, merging
    cells of the same window; the feed is left empty. Nothing is
    evaluated until {!flush} / {!report}. *)

val on_violation :
  t ->
  (name:string ->
  window_start_ms:float ->
  window_end_ms:float ->
  value:float ->
  target:float ->
  unit) ->
  unit
(** Install a breach hook, fired once per violated objective of each
    evaluated window, in window order and then objective order. Stamps
    are the window's bounds relative to the run's start ([k * window_ms]
    and [(k+1) * window_ms]). Used to feed the flight
    recorder. *)

val flush : t -> unit
(** Evaluate every cell absorbed so far without producing a
    report — call when the run ends so breach hooks fire before the
    recorder is dumped. Evaluated cells are gone: a later {!report}
    counts nothing twice. *)

val abort_classes : t -> (string * int) list
(** Cumulative abort counts by cause, sorted by class name, over the
    every absorbed feed; only attributed aborts appear. Evaluates nothing. *)

type report_line = {
  name : string;
  kind : string;  (** ["latency"] or ["abort_rate"] *)
  q : float;  (** quantile for latency objectives, [nan] otherwise *)
  target : float;  (** ms for latency, a fraction for abort rate *)
  windows : int;  (** evaluated (non-empty) windows *)
  violations : int;
  worst : float;  (** worst window value seen, [nan] if none evaluated *)
  overall : float;  (** whole-run value from the cumulative sketch *)
}

val report : t -> report_line list
(** {!flush}es first, so calling it again reports the same lines. Lines
    appear in objective order. *)

val healthy : report_line list -> bool
(** No objective saw a violated window. *)
