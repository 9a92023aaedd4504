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

val concat : t array -> t
(** [concat parts] holds every part's samples, part after part, each in
    its current storage order: the statistics of one set that [add]ed
    them all in that order ([mean] bit for bit, since the sum runs left to
    right over the whole sequence, not part by part). It allocates the
    total once and copies each part with one blit; the parts are
    unchanged. *)

val partition : t array -> tags:Bytes.t array -> sizes:int array -> t array
(** [partition parts ~tags ~sizes] splits the parts' samples by a tag
    byte: sample [i] of [parts.(s)] goes to set [Char.code (Bytes.get
    tags.(s) i)], part after part, each part in its current storage
    order — so every set holds its samples in the order {!concat} would,
    with the statistics of adding them one by one in that order. Set [k]
    is allocated once, at [sizes.(k)]. Raises [Invalid_argument] unless
    [sizes.(k)] is exactly the number of samples tagged [k]. *)

val to_sorted_array : t -> float array
(** A copy, ascending. *)
