(** Entity arena: per site, a compact {!core} for each entity this site
    has touched, found through a small touched-only index behind a
    touched bitmap, and lazily materialised "hot" state; the name and the maximum of every entity
    live once per cluster, in the shared {!Directory}.

    A production gateway holds millions of aggregate objects of which only
    a few are contended at any moment, so an entity costs what its lane
    has done with it:
    - {e cold}: never touched by the owning site — nothing in the arena.
      Its tokens here are the site's equal share of the maximum the
      directory holds (remainder to the lowest sites, {!equal_share});
    - {e touched}: a request, an exposure to a batch scope or heating
      allocated its {!core} — name, dense id, token ledger — from that
      share; the arena's index maps the eid to the core, open-addressed
      and sized by the touched eids alone, and its bitmap sets the eid's
      bit (one bit per eid up to the highest touched, grown by
      doubling), so a read of an eid whose bit is clear — or past the
      bitmap's end — answers "cold" without probing the index;
    - {e hot}: contended — the heavyweight ['hot] payload (request queue,
      demand tracker, decided log, protocol machine) attached by the
      owning {!Site}.

    Only the lane that owns the arena touches: {!find}, {!by_eid},
    {!install} and {!register} materialise a core and write the index;
    {!peek}, {!eid}, {!touched} and the by-eid ledger reads never do.

    Names resolve through a {!Directory}: name → dense eid, one
    [Hashtbl.hash] per lookup, open-addressed into one of [shards] flat
    [int] tables whose slots tag each eid with its name's hash, plus one
    [int] per eid for its maximum. [shards] is rounded up to a power of
    two: the hash's low bits pick the shard and the bits above them the
    home slot, two masks and no division. The namespace and the maxima are the
    same at every site — only the token values are partitioned — so a
    {!Cluster} owns one directory and each site's arena is indexed by its
    eids: a name is hashed once per cluster at registration, not once per
    site, and a key no site has touched costs its one directory entry.
    The directory is written only between simulation windows; lanes read
    it concurrently inside them. Iteration runs in dense-eid
    (registration) order, so results never depend on the shard count or
    on the order entities were touched. *)

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
  (** [shards] (default [1]) is rounded up to a power of two (3 → 4);
      [capacity] is a size hint (expected entities) that pre-sizes the
      tables. Raises [Invalid_argument] unless [shards >= 1] and
      [capacity >= 1]. *)

  val add : t -> string -> maximum:int -> int
  (** Assign the next dense eid to a new name whose {!maximum} is
      [maximum]. Raises [Invalid_argument] on a duplicate, a negative
      maximum, or past 2^31 names (eids fill 31 bits of a slot). *)

  val find : t -> string -> int
  (** The name's eid, or [-1] for an unknown name (no allocation). *)

  val name : t -> int -> string
  (** Raises [Invalid_argument] out of range. *)

  val maximum : t -> int -> int
  (** The entity's maximum, as added. Raises [Invalid_argument] out of
      range. *)

  val length : t -> int

  val truncate : t -> int -> unit
  (** [truncate d n] forgets every name (and maximum) whose eid is
      [>= n] — the rollback of a rejected batch. Only valid while no arena
      on [d] has touched those eids. *)

  val max_probe : t -> int
  (** The longest probe any present name takes: [1] when every name sits
      in its home slot ([0] when empty). A health figure for the hash. *)
end

type 'hot t

val create :
  ?directory:Directory.t ->
  ?shards:int ->
  ?capacity:int ->
  ?site:int ->
  ?sites:int ->
  unit ->
  'hot t
(** An empty arena on [directory]; without one the arena gets its own,
    built with [shards] and [capacity] (both ignored otherwise). The
    arena is site [site] (default [0]) of [sites] (default [1]) in the
    equal split that gives a cold entity its tokens here. The touched
    index starts small and grows with the touched eids alone. Raises
    [Invalid_argument] unless [shards >= 1], [capacity >= 1] and
    [0 <= site < sites]. *)

val equal_share : sites:int -> maximum:int -> int -> int
(** [equal_share ~sites ~maximum i]: site [i]'s share of [maximum] split
    equally over [sites], the remainder to the lowest ids. *)

val install : 'hot t -> int -> tokens:int -> 'hot core
(** [install t eid ~tokens] touches a cold eid with [tokens] in place of
    its equal share (a key registered with explicit shares). Raises
    [Invalid_argument] on an eid out of range, negative tokens or a
    touched eid. *)

val register : 'hot t -> entity:string -> tokens:int -> 'hot core
(** Add a new name to the directory with maximum [tokens] and {!install}
    it here with [tokens]. Raises [Invalid_argument] on a duplicate name
    or negative tokens. *)

val find : 'hot t -> string -> 'hot core option
(** One directory lookup, then the entity's core, materialised on first
    touch; [None] for an unknown name. Owning lane only. *)

val by_eid : 'hot t -> int -> 'hot core
(** The core of a directory eid, materialised on first touch. Owning
    lane only. Raises [Invalid_argument] out of range. *)

val peek : 'hot t -> string -> 'hot core option
(** The core if the entity has been touched, [None] if it is cold or
    unknown. Never allocates a core. *)

val eid : 'hot t -> string -> int
(** The entity's eid, or [-1] if unknown. *)

val touched : 'hot t -> int -> 'hot core
(** [touched t eid]: the core if this arena has touched [eid]; otherwise
    the arena's one placeholder, whose [eid] is [-1] and which must never
    be written. One bit read for a cold eid, one index probe for a
    touched one; no allocation, never a touch: the read a cluster-wide
    audit makes per site. Raises [Invalid_argument] out of range. *)

val bitmap_bits : 'hot t -> int
(** The eids the touched bitmap covers, [0 .. bitmap_bits t - 1]: every
    touched eid is below it, and every eid at or past it is cold here.
    [0] until the first touch. *)

(** Ledger reads by eid, cold or touched; none allocates. Each raises
    [Invalid_argument] on an eid out of the directory's range. *)

val tokens_left : 'hot t -> int -> int
val acquired_net : 'hot t -> int -> int
val tokens_wanted : 'hot t -> int -> int

val set_hot : 'hot t -> 'hot core -> 'hot -> unit
(** Attach hot state to a core (keeps {!hot_count} correct). *)

val length : 'hot t -> int
(** Entities in the directory: every one of them has an eid here. *)

val hot_count : 'hot t -> int

val iter : ('hot core -> unit) -> 'hot t -> unit
(** Every touched core, in dense-eid order — deterministic, independent
    of the shard count and of touch order. Cold entities have no core
    and are skipped. *)

val iter_hot : ('hot core -> 'hot -> unit) -> 'hot t -> unit
(** The hot cores, in dense-eid order. *)
