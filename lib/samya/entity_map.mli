(** Entity arena: dense entity ids, one [int] slot per entity holding a
    cold entity's starting share or a touched entity's core index, a
    compact {!core} per touched entity, and lazily materialised "hot"
    state.

    A production gateway holds millions of aggregate objects of which only
    a few are contended at any moment, so an entity costs what its lane
    has done with it:
    - {e cold}: never touched by the owning site — exactly one [int] in
      the arena, its starting share ([>= 0]);
    - {e touched}: a request, an exposure to a batch scope or heating
      allocated its {!core} — name, dense id, token ledger — from that
      share; the same slot now holds [-1 - k], the core's index in a dense
      core vector;
    - {e hot}: contended — the heavyweight ['hot] payload (request queue,
      demand tracker, decided log, protocol machine) attached by the
      owning {!Site}.

    Only the lane that owns the arena touches: {!find}, {!by_eid} and
    {!register} materialise a core; {!peek}, {!eid} and the by-eid ledger
    reads never allocate one.

    Names resolve through a {!Directory}: name → dense eid, one
    [Hashtbl.hash] per lookup, open-addressed into one of [shards] flat
    [int] tables whose slots tag each eid with its name's hash. The
    namespace is the same at every site — only the token values are
    partitioned — so a {!Cluster} owns one directory and each site's arena
    is indexed by its eids: a name is hashed once per cluster at
    registration, not once per site. The directory is written only
    between simulation windows; lanes read it concurrently inside them.
    Iteration runs in dense-eid (registration) order, so results never
    depend on the shard count or on the order entities were touched. *)

type 'hot core = {
  name : string;
  eid : int;  (** dense id, assigned by the directory in registration order *)
  mutable tokens_left : int;
  mutable acquired_net : int;
  mutable tokens_wanted : int;
  mutable exposed : bool;
      (** [true] while this entity's InitVal is exposed to a live protocol
          instance, set and cleared by the protocol channel that reported
          it; the participation flag of entities without a per-entity
          machine (batched mode), whose machine tracks participation
          itself otherwise *)
  mutable hot : 'hot option;
      (** the heavyweight per-entity state ({!Entity_state.t} in the
          site), [None] until the entity turns hot *)
}

(** The shared name → eid map. *)
module Directory : sig
  type t

  val create : ?shards:int -> ?capacity:int -> unit -> t
  (** [capacity] is a size hint (expected entities) that pre-sizes the
      tables. Raises [Invalid_argument] unless [shards >= 1] and
      [capacity >= 1]. *)

  val add : t -> string -> int
  (** Assign the next dense eid to a new name. Raises [Invalid_argument]
      on a duplicate, or past 2^31 names (eids fill 31 bits of a slot). *)

  val find : t -> string -> int
  (** The name's eid, or [-1] for an unknown name (no allocation). *)

  val name : t -> int -> string
  (** Raises [Invalid_argument] out of range. *)

  val length : t -> int

  val truncate : t -> int -> unit
  (** [truncate d n] forgets every name whose eid is [>= n] — the
      rollback of a rejected batch. Only valid while no arena on [d] has
      appended those eids. *)

  val max_probe : t -> int
  (** The longest probe any present name takes: [1] when every name sits
      in its home slot ([0] when empty). A health figure for the hash. *)
end

type 'hot t

val create :
  ?directory:Directory.t -> ?shards:int -> ?capacity:int -> unit -> 'hot t
(** An empty arena on [directory]; without one the arena gets its own,
    built with [shards] and [capacity] ([shards] is ignored otherwise).
    [capacity] is a size hint for the eid-indexed arrays. Raises
    [Invalid_argument] unless [shards >= 1] and [capacity >= 1]. *)

val append : 'hot t -> first_eid:int -> count:int -> unit
(** [append t ~first_eid ~count] adds cold entities the directory already
    holds, eids [first_eid ..], with share 0, no hashing and no core.
    [first_eid] must equal {!length}. Raises [Invalid_argument]
    otherwise, or on an eid the directory does not hold. *)

val set_share : 'hot t -> int -> int -> unit
(** [set_share t eid tokens]: a cold entity's starting share. Raises
    [Invalid_argument] on an eid not appended, negative tokens or a
    touched entity. *)

val register : 'hot t -> entity:string -> tokens:int -> 'hot core
(** Add a new name to the directory, {!append} it and return its core.
    Raises [Invalid_argument] on a duplicate name, negative tokens, or
    an arena that has not appended every eid of its directory. *)

val find : 'hot t -> string -> 'hot core option
(** One directory lookup, then the entity's core, materialised on first
    touch; [None] for an unknown name or an eid this arena has not
    appended yet. Owning lane only. *)

val by_eid : 'hot t -> int -> 'hot core
(** The core of an appended eid, materialised on first touch. Owning
    lane only. Raises [Invalid_argument] out of range. *)

val peek : 'hot t -> string -> 'hot core option
(** The core if the entity has been touched, [None] if it is cold or
    unknown. Never allocates a core. *)

val eid : 'hot t -> string -> int
(** The entity's eid, or [-1] if unknown or not appended yet. *)

(** Ledger reads by eid, cold or touched; none allocates. Each raises
    [Invalid_argument] on an eid this arena has not appended. *)

val tokens_left : 'hot t -> int -> int
val acquired_net : 'hot t -> int -> int
val tokens_wanted : 'hot t -> int -> int

val set_hot : 'hot t -> 'hot core -> 'hot -> unit
(** Attach hot state to a core (keeps {!hot_count} correct). *)

val length : 'hot t -> int
(** Entities appended so far. *)

val hot_count : 'hot t -> int

val iter : ('hot core -> unit) -> 'hot t -> unit
(** Every touched core, in dense-eid order — deterministic, independent
    of the shard count and of touch order. Cold entities have no core
    and are skipped. *)

val iter_hot : ('hot core -> 'hot -> unit) -> 'hot t -> unit
(** The hot cores, in dense-eid order. *)
