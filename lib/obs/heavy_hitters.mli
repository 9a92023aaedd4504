(** Mergeable Misra-Gries heavy-hitters sketch over entity ids.

    Tracks at most [k] keys online with the one-sided Misra-Gries
    guarantee: [estimate key <= true count <= estimate key + error],
    where untracked keys estimate to 0 and {!error} is the cumulative
    decrement depth. {!merge} is the {e exact} pointwise sum (no
    re-compression), so it is commutative, associative, and lossless on
    disjoint key sets — the property the per-lane {!Windowed} views rely
    on for byte-identical results at any [--engine-jobs]. *)

type t

val create : k:int -> unit -> t
(** Raises [Invalid_argument] unless [k] is positive. *)

val copy : t -> t

val observe : ?count:int -> t -> string -> unit
(** Feed [count] (default 1) arrivals of a key. Non-positive counts are
    ignored. *)

val merge : t -> t -> t
(** Fresh sketch holding the pointwise count sum and summed error terms
    of both arguments; inputs are not mutated. The result may track more
    than [k] keys. *)

val estimate : t -> string -> int
(** Lower bound on the key's true count (0 if untracked). *)

val error : t -> int
(** One-sided error bound: [true count <= estimate + error]. *)

val total : t -> int
(** Total observations fed in (exact). *)

val tracked : t -> int

val top : ?n:int -> t -> (string * int) list
(** Tracked keys by (count desc, key asc); [n] caps the list. *)

val dump : t -> int * int * int * (string * int) list
(** [(k, error, total, top)] — canonical value for structural equality
    in tests. *)

(** Tumbling per-lane windows. Each engine lane writes only its own
    slot; reads merge lanes in lane order, so views are independent of
    the worker count. Lane [-1] is the driver/global lane. *)
module Windowed : sig
  type w

  val create : k:int -> window_ms:float -> unit -> w
  (** Raises [Invalid_argument] unless [k] is positive and [window_ms]
      is positive and finite. *)

  val reserve : w -> lanes:int -> unit
  (** Allocate the slots of lanes [-1 .. lanes-1] up front. A slot is
      otherwise created on its lane's first observation, which grows an
      array every lane shares: arming a system reserves its lanes before
      they observe from parallel domains. *)

  val observe : w -> lane:int -> now_ms:float -> string -> unit

  val windows : w -> (float * t) list
  (** Per-window lane-merged sketches, ascending window start (ms). *)

  val cumulative : w -> t
  (** All windows merged. *)

  val at : w -> ts:float -> (float * t) option
  (** The merged window containing virtual time [ts], with its start. *)
end
