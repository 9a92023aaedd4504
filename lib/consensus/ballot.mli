(** Ballot numbers: the [< num, site-id >] pairs that totally order
    proposals in Paxos and in both Avantan variants (Table 1c). *)

type t = { num : int; site : int }

val zero : int -> t
(** [zero site] is [< 0, site >], the initial ballot at a site. *)

val next : t -> site:int -> t
(** [next b ~site] increments the counter and stamps the caller's id —
    the "BallotNum <- (BallotNum.num + 1, selfId)" step. *)

val compare : t -> t -> int
(** Lexicographic on [(num, site)]. *)

val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Set : Stdlib.Set.S with type elt = t
(** Persistent sets ordered by {!compare}: a durable image can share one
    with the live state, so taking it costs no copy. *)

module Map : Stdlib.Map.S with type key = t
(** Persistent maps ordered by {!compare}. *)
