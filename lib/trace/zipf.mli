(** Zipfian rank sampler — the gateway fleet's key-popularity model.

    Ranks are 0-based and popularity is rank-monotone by construction:
    rank [r] is drawn with probability proportional to
    [1 / (r+1)^theta], so [probability t r > probability t (r+1)] for
    every [theta > 0]. Sampling is a binary search over a precomputed
    CDF, deterministic in the caller's {!Des.Rng} stream. *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] materialises the distribution over [n] ranks.
    [theta] defaults to [0.99] (the YCSB constant). Raises
    [Invalid_argument] when [n < 1] or [theta < 0]. *)

val theta : t -> float

val probability : t -> int -> float
(** Probability of drawing the given 0-based rank. *)

val sample : t -> Des.Rng.t -> int
(** Draw a rank; O(log n). *)
