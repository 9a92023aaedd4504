(** Forecast accuracy metrics (Table 2a reports MAE). *)

val mae : actual:float array -> predicted:float array -> float
(** Mean absolute error. Raises [Invalid_argument] on length mismatch or
    empty input. *)

val rmse : actual:float array -> predicted:float array -> float
