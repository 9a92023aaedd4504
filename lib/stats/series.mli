(** Small utilities over float time series (dense arrays).

    Shared by the trace pipeline and the forecasting code: differencing,
    moving averages, autocorrelation, train/test splits, elementwise maps. *)

val mean : float array -> float

val stddev : float array -> float

val diff : float array -> float array
(** First difference; length decreases by one. Empty input yields empty. *)

val undiff : first:float -> float array -> float array
(** Inverse of {!diff}: cumulative sum anchored at [first]. *)

val moving_average : int -> float array -> float array
(** [moving_average k xs]: centred-causal window of the last [k] values
    (positions [< k-1] average the available prefix). Raises
    [Invalid_argument] if [k <= 0]. *)

val autocorrelation : float array -> int -> float
(** [autocorrelation xs lag]: Pearson autocorrelation at the given lag;
    [nan] when undefined. *)

val split_at_fraction : float -> float array -> float array * float array
(** [split_at_fraction 0.8 xs] is the 80/20 prefix/suffix split used for
    train/test. The fraction is clamped to [\[0, 1\]]. *)

val windows : input:int -> float array -> (float array * float) array
(** [windows ~input xs] builds supervised pairs: each item is ([input]
    consecutive values, the next value). Returns [||] when [xs] is too
    short. *)
