(** Common interface for one-step-ahead demand forecasters.

    The paper's Prediction Module is pluggable; this type is the plug. A
    forecaster maps a demand history (one value per epoch, oldest first) to
    a prediction for the next epoch. Implementations: {!Random_walk},
    {!Arima}, {!Lstm}, plus test oracles built with {!of_fn}. *)

type t = {
  name : string;
  min_history : int;
      (** Fewest history points needed for a meaningful prediction; with
          less, implementations fall back to a naive estimate. *)
  predict : float array -> float;
}

val of_fn : name:string -> ?min_history:int -> (float array -> float) -> t

val rolling_eval : t -> train:float array -> test:float array -> float array
(** One-step rolling forecast over [test]: the i-th prediction sees
    [train @ test[0..i-1]]. Returns the predictions (same length as
    [test]). *)

val rolling_mae : t -> train:float array -> test:float array -> float
(** MAE of {!rolling_eval} against [test] — the Table 2a protocol. *)
