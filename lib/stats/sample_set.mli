(** Exact percentile computation over a collected sample set.

    Latency distributions in the experiments hold at most a few million
    samples, so we keep them all and compute exact order statistics — no
    estimation error in the reproduced Table 2b. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val get : t -> int -> float
(** [get t i] is sample [i] in storage order: the order the samples were
    added in, until a percentile or {!to_sorted_array} sorts the set in
    place. Raises [Invalid_argument] unless [0 <= i < count t]. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], nearest-rank with linear
    interpolation (same convention as numpy's default). [nan] when empty.
    Raises [Invalid_argument] for [p] outside the range or NaN. *)

val median : t -> float

val mean : t -> float

val min_value : t -> float

val max_value : t -> float

val merge_into : t -> into:t -> unit
(** [merge_into src ~into] appends [src]'s samples to [into] in [src]'s
    current storage order, updating the running sum sample-by-sample — so
    merging per-slot sets in a fixed order yields bit-identical statistics
    to having added the samples to one set in that order. [src] is
    unchanged. *)

val to_sorted_array : t -> float array
(** A copy, ascending. *)
