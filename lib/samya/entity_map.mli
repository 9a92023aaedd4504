(** Entity arena: one compact {!core} per registered entity, dense
    entity ids, and lazily materialised "hot" state.

    A production gateway holds millions of aggregate objects of which only
    a few are contended at any moment. The arena keeps a cold entity at a
    handful of words — its name, dense id, and token ledger — and defers
    everything heavyweight (request queue, demand tracker, decided log,
    protocol machine) to the ['hot] payload, attached on first contention
    by the owning {!Site}.

    Names resolve through a {!Directory}: name → dense eid, hashed into
    one of [shards] tables. The namespace is the same at every site —
    only the token values are partitioned — so a {!Cluster} owns one
    directory and each site's arena is a dense eid-indexed array of
    cores pointing at it: a name is hashed once per cluster at
    registration, not once per site. The directory is written only
    between simulation windows; lanes read it concurrently inside them.
    Iteration runs in dense-eid (registration) order, so results never
    depend on the shard count. *)

type 'hot core = {
  name : string;
  eid : int;  (** dense id, assigned by the directory in registration order *)
  mutable tokens_left : int;
  mutable acquired_net : int;
  mutable tokens_wanted : int;
  mutable exposed : bool;
      (** participation flag for the batched site-level protocol: [true]
          while this entity's InitVal is exposed to a live instance (the
          per-entity machines track exposure internally instead) *)
  mutable hot : 'hot option;
      (** the heavyweight per-entity state ({!Entity_state.t} in the
          site), [None] while the entity is cold *)
}

(** The shared name → eid map. *)
module Directory : sig
  type t

  val create : ?shards:int -> ?capacity:int -> unit -> t
  (** [capacity] is a size hint (expected entities). Raises
      [Invalid_argument] unless [shards >= 1] and [capacity >= 1]. *)

  val add : t -> string -> int
  (** Assign the next dense eid to a new name. Raises [Invalid_argument]
      on a duplicate. *)

  val find : t -> string -> int option

  val name : t -> int -> string
  (** Raises [Invalid_argument] out of range. *)

  val length : t -> int

  val truncate : t -> int -> unit
  (** [truncate d n] forgets every name whose eid is [>= n] — the
      rollback of a rejected batch. Only valid while no arena on [d] has
      appended those eids. *)
end

type 'hot t

val create :
  ?directory:Directory.t -> ?shards:int -> ?capacity:int -> unit -> 'hot t
(** An empty arena on [directory]; without one the arena gets its own,
    built with [shards] and [capacity] ([shards] is ignored otherwise).
    [capacity] is a size hint for the core array. Raises
    [Invalid_argument] unless [shards >= 1] and [capacity >= 1]. *)

val append : 'hot t -> eid:int -> tokens:int -> 'hot core
(** Add the cold core of an entity the directory already holds, with no
    hashing. Eids must arrive in order: [eid] must equal {!length}.
    Raises [Invalid_argument] otherwise, on an eid the directory does
    not hold, or on negative tokens. *)

val register : 'hot t -> entity:string -> tokens:int -> 'hot core
(** Add a new name to the directory and {!append} its cold core holding
    [tokens]. Raises [Invalid_argument] on a duplicate name, negative
    tokens, or an arena that has not appended every eid of its
    directory. *)

val find : 'hot t -> string -> 'hot core option
(** One directory lookup; [None] for an unknown name or an eid this
    arena has not appended yet. *)

val by_eid : 'hot t -> int -> 'hot core
(** Raises [Invalid_argument] out of range. *)

val set_hot : 'hot t -> 'hot core -> 'hot -> unit
(** Attach hot state to a core (keeps {!hot_count} correct). *)

val length : 'hot t -> int
(** Cores appended so far. *)

val hot_count : 'hot t -> int

val iter : ('hot core -> unit) -> 'hot t -> unit
(** Dense-eid order — deterministic, shard-count independent. *)

val iter_hot : ('hot core -> 'hot -> unit) -> 'hot t -> unit

val fold : ('hot core -> 'a -> 'a) -> 'hot t -> 'a -> 'a
