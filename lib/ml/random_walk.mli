(** Random-walk (naive / persistence) forecaster: the next value equals the
    last observed value. The paper's baseline model in Table 2a. *)

val forecaster : unit -> Forecaster.t
