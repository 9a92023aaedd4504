(** Durability layer with a configurable sync policy.

    Sits between a protocol's in-memory state and {!Stable_store}: writes
    land in a volatile buffer and only survive a simulated crash once
    synced. [Sync_always] models write-through (fsync per update, the
    Paxos-safe default), [Sync_batched n] models group commit (a crash
    loses at most the last unsynced batch), [Sync_never] models a site
    that only persists its initial image — the configuration under which
    the chaos auditor can demonstrate why the Avantan safety argument
    needs durable promises. *)

type sync_policy = Sync_always | Sync_batched of int | Sync_never

val validate_policy : sync_policy -> (unit, string) result

type 'a t

val create : policy:sync_policy -> unit -> 'a t
(** Raises [Invalid_argument] on [Sync_batched n] with [n < 1]. *)

val policy : _ t -> sync_policy

val put : 'a t -> key:string -> 'a -> unit
(** Record the latest image for [key]; durable immediately under
    [Sync_always], otherwise once enough writes accumulate ([Sync_batched])
    or {!sync} is called explicitly. *)

val force : 'a t -> key:string -> 'a -> unit
(** Write-through regardless of policy (initial images: a site must not
    serve before its starting allocation is durable). *)

val sync : 'a t -> unit
(** Flush the volatile buffer to stable storage (in sorted key order, so
    the write pattern is deterministic). *)

val load : 'a t -> key:string -> 'a option
(** The last {e durable} image — unsynced writes are invisible, exactly
    what a recovering site would read back after a crash. *)

val lose_unsynced : 'a t -> int
(** Crash: discard the volatile buffer, returning how many keys lost
    unsynced updates. *)

val sync_count : _ t -> int
(** Stable-storage flushes (a proxy for fsync cost). *)

val pending_count : _ t -> int
