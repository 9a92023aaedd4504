(** Windowed throughput recorder.

    Counts committed transactions into fixed-width virtual-time windows;
    the per-window series drives the throughput-over-time figures
    (Figs. 3b–3f) and the averages drive the bar/line charts (Figs. 3g, 3h). *)

type t

val create : window_ms:float -> t
(** Raises [Invalid_argument] unless [window_ms] is positive and finite. *)

val record : t -> time_ms:float -> unit
(** Counts one event at the given virtual time: an array write, the
    counts taking one int per window up to the latest. Times may arrive
    out of order. Negative, infinite and NaN times raise
    [Invalid_argument]. *)

val record_n : t -> time_ms:float -> int -> unit

val total : t -> int

val window_ms : t -> float

val series : t -> ?until_ms:float -> unit -> (float * float) list
(** [(window_start_ms, events_per_second)] for every window from 0 to the
    latest recorded event (or [until_ms]), including empty windows. *)

val merge_into : t -> into:t -> unit
(** [merge_into src ~into] adds [src]'s per-window counts into [into].
    Raises [Invalid_argument] on window-width mismatch. [src] is
    unchanged. *)
