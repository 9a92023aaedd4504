(** Process-local metric registry: named counters, gauges and log-bucketed
    histograms.

    Instruments are interned by name — looking one up twice returns the same
    instrument, so hot paths can resolve an instrument once and update it
    with a field write. Every instrument keeps one cell per lane of the
    registry's {!Lane_log.clock}; a write touches only the executing lane's
    cell, so lanes draining on different domains never share one. Reads
    combine the cells: counters sum, a gauge's last value is the write with
    the highest (epoch, lane), and histograms fold their observations in
    (epoch, lane, sequence) order — the same numbers, to the bit, at any
    worker count.

    Histograms use logarithmic buckets (ratio [2^(1/4)] ≈ 19% per bucket,
    first boundary at 0.001), which keeps relative quantile error under ~10%
    across nine decades — enough for microsecond-to-hour latencies in ms
    units. Bucket counts are integers, so {!merge} is exactly associative
    and commutative on everything except the float [sum]. *)

type t

val create : Lane_log.clock -> t
(** Fresh registry over the lanes of [clock] ({!Lane_log.single} for a
    plain one-writer registry). *)

(** {2 Counters} — monotonic integer totals. *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} — last-written value plus the running maximum. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float option
val gauge_max : gauge -> float option

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
(** Values [<= 0] land in the first bucket; NaN is ignored. *)

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  buckets : (int * int) list;
      (** sparse [(bucket index, count)], ascending, zeros omitted *)
}

val snapshot_histogram : histogram -> histogram_snapshot

val bucket_upper_bound : int -> float
(** Upper boundary of bucket [i] (values [v <= bound] fall at or below it). *)

val merge : histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** Pointwise sum; associative and commutative up to float rounding of
    [sum] (all integer fields are exact). *)

val quantile : histogram_snapshot -> float -> float
(** [quantile s q] for [q] in [0, 1]: upper bound of the bucket holding the
    [q]-th fraction of observations; [nan] when empty. *)

(** {2 Whole-registry snapshot} — sorted by name, for deterministic export. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float * float) list;  (** name, last, max *)
  histograms : (string * histogram_snapshot) list;
}

val snapshot : t -> snapshot
