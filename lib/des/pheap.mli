(** Array-backed binary min-heap keyed by [(priority, sequence)].

    The event queue of the simulation engine. Ties on priority are broken by
    insertion order (the sequence number), which gives the engine FIFO
    semantics for simultaneous events — essential for deterministic replay.

    The heap order lives in unboxed arrays (keys, sequence numbers, slot
    ids); each value is stored once, at push, in a slot of a separate array
    that lives in the major heap. The sifts move no value: storing a young
    one (a freshly scheduled closure) there costs a [caml_modify] and a
    remembered-set entry, which moving values paid at every sift level. A
    pop resets its slot to [create]'s [dummy], so the heap keeps nothing it
    has handed out reachable. The steady-state push/pop cycle allocates
    nothing: use {!is_empty}, {!min_key} and {!pop_unsafe} on the hot path;
    {!pop}/{!peek} remain as the safe, option-returning API. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills the free slots; a non-empty heap never returns it. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** [push t ~priority v] inserts [v]; cost O(log n), no allocation unless
    the backing arrays must grow. *)

val reserve : 'a t -> int
(** Takes the next sequence number, as {!push} would, without inserting
    anything: an entry that enters the heap later with {!push_reserved}
    keeps the place in the tie order it had when it was reserved. *)

val push_reserved : 'a t -> priority:float -> seq:int -> 'a -> unit
(** [push_reserved t ~priority ~seq v] inserts [v] under the key
    [(priority, seq)], where [seq] came from {!reserve} on [t] and has
    not been pushed before. [push t ~priority v] is
    [push_reserved t ~priority ~seq:(reserve t) v]. *)

val min_key : 'a t -> float
(** Priority of the minimum entry. Undefined when the heap is empty (may
    raise [Invalid_argument]); guard with {!is_empty}. *)

val pop_unsafe : 'a t -> 'a
(** Removes and returns the minimum entry's value without allocating.
    Undefined when the heap is empty (may raise [Invalid_argument]);
    guard with {!is_empty}. Read {!min_key} first if the key is needed. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest [(priority, sequence)]
    key, or [None] when empty. *)

val drain_below : 'a t -> limit:float -> (float -> 'a -> unit) -> unit
(** [drain_below t ~limit f] pops every entry with key strictly below
    [limit] in order, calling [f key value] on each. [f] may push back
    into the heap; entries it inserts below the limit drain in the same
    pass. Allocation-free (one root probe per event instead of the
    caller-side [is_empty]/[min_key] pair) — the batched window-drain
    path of the sharded engine. *)

val drain_to : 'a t -> limit:float -> (float -> 'a -> unit) -> unit
(** Inclusive variant of {!drain_below}: drains keys [<= limit]. *)

val peek : 'a t -> (float * 'a) option
(** Like {!pop} without removal. *)

val clear : 'a t -> unit
