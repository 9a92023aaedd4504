(** ARIMA(p, d, 0) forecaster — the linear-regression model of Table 2a.

    The series is differenced [d] times, an autoregression of order [p]
    (plus intercept) is fitted by ordinary least squares on the training
    data, and one-step forecasts are integrated back to the original scale. A pure-AR ARIMA keeps estimation
    closed-form (normal equations) while retaining the model family's
    behaviour: it tracks local trend and autocorrelation, beating a random
    walk, but cannot capture the non-linear daily shape the LSTM learns. *)

type model

val fit : ?p:int -> ?d:int -> float array -> model
(** Defaults [p = 3], [d = 1]. Raises [Invalid_argument] if the series is
    too short for the requested orders ([< p + d + 2] points). *)

val coefficients : model -> float array
(** [[| intercept; phi_1; ...; phi_p |]]. *)

val predict_next : model -> float array -> float
(** One-step forecast given a history on the original scale. Falls back to
    persistence while the history is shorter than the model needs. *)

val forecaster : model -> Forecaster.t
