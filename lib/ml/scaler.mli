(** Feature scaling for the learners.

    LSTM training needs inputs in a small range; ARIMA benefits from
    centring. A scaler is fitted on training data only and then applied to
    both splits — fitting on the full series would leak test information. *)

type t

val fit_min_max : ?low:float -> ?high:float -> float array -> t
(** Affine map sending the observed min/max onto [\[low, high\]] (defaults
    [0, 1]). A constant series maps to the midpoint. *)

val fit_standard : float array -> t
(** Z-score scaler (zero mean, unit variance on the fit data). *)

val transform : t -> float -> float

val inverse : t -> float -> float
(** [inverse t (transform t x) = x] up to rounding. *)

val transform_array : t -> float array -> float array
