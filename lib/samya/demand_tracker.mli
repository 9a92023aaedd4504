(** Per-epoch demand history at a site.

    Feeds the Prediction Module: every acquire request's token amount is
    recorded into the current epoch's bucket; completed epochs form the
    history the forecaster extrapolates from (§4.2). *)

type t

val create : engine:Des.Engine.t -> epoch_ms:float -> capacity:int -> t
(** Keeps up to [capacity] completed epochs. *)

val record : t -> amount:int -> unit
(** Adds demand at the engine's current time. *)

val history : t -> float array
(** Completed epochs' net demand, oldest first (empty epochs included as
    zeros). With signed recording (acquire [+], release [-]) this is the
    per-epoch net consumption the forecaster extrapolates. *)

val peak_history : t -> float array
(** Per completed epoch: the maximum of the running demand sum within the
    epoch — the peak concurrent token draw, i.e. the working capital a
    site needed at that epoch's worst moment. *)

val current_epoch_demand : t -> float
(** Demand accumulated so far in the not-yet-complete epoch. *)

val current_epoch_peak : t -> float
