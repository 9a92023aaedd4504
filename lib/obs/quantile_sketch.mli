(** Deterministic mergeable streaming quantile sketch.

    A fixed-geometry log-bucket histogram (gamma = 2{^1/8}, 320 buckets
    from 1e-3 up past 1e9): inserting is one bucket increment, and
    {!quantile} answers any rank query with bounded {e relative} error —
    the reported value [v'] for the exact nearest-rank value [v]
    satisfies [v <= v' < v * gamma] whenever [v > 1e-3] (clamped to the
    observed min/max at the extremes).

    {!merge} is total, associative and commutative — two sketches fed
    disjoint halves of a stream merge into exactly the sketch of the whole
    stream, which is what lets per-window and per-system sketches combine
    without re-reading samples. No sum is tracked: the state is integral
    (buckets + count) plus min/max, so the algebra holds exactly, not just
    approximately. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** NaN samples are ignored. *)

val clear : t -> unit
(** Empty [t] in place: afterwards it is {!equal} to a fresh {!create},
    with no allocation. *)

val merge : t -> t -> t
(** Functional: inputs are unchanged. *)

val equal : t -> t -> bool

val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0,1]]; nearest-rank on the bucket
    cumulative counts, reported as the bucket's upper bound clamped into
    [[min, max]]. [nan] on an empty sketch. *)

val gamma : float
(** The bucket growth factor — the relative-error bound of {!quantile}. *)

val bucket_of : float -> int
val bucket_upper_bound : int -> float
