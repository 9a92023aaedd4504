(** Dense row-major float matrices and the linear algebra the forecasting
    models need: products, elementwise ops, transpose, and a pivoted
    Gaussian solver for the ARIMA/OLS normal equations. *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** Zero-filled [rows x cols] matrix. Raises [Invalid_argument] on
    non-positive dimensions. *)

val of_arrays : float array array -> t
(** Rows must be non-empty and equal length. *)

val init : int -> int -> (int -> int -> float) -> t

val random : Des.Rng.t -> int -> int -> scale:float -> t
(** Entries uniform in [(-scale, scale)] — standard small-weight init. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val matmul : t -> t -> t
(** Raises [Invalid_argument] on dimension mismatch. *)

val mat_vec : t -> float array -> float array
(** [mat_vec m v] with [Array.length v = cols m]. *)

val vec_mat : float array -> t -> float array
(** Row vector times matrix. *)

val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val map : (float -> float) -> t -> t

val add_in_place : t -> t -> unit
(** [add_in_place acc m]: [acc <- acc + m]. *)

val outer : float array -> float array -> t
(** [outer u v] is the [|u| x |v|] rank-one product. *)

val frobenius_norm : t -> float

val solve : t -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. Raises [Failure] on a (numerically) singular system and
    [Invalid_argument] on shape mismatch. *)

val identity : int -> t
