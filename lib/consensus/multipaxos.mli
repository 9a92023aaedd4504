(** Multi-Paxos replicated log with a stable leader.

    The replication engine of the MultiPaxSys baseline (§5, baseline i): a
    Spanner-like system runs the equivalent of a Paxos phase-2 round per log
    entry under a long-lived leader lease, so the steady-state cost of a
    command is one majority round trip. Elections are out of scope for the
    baseline (the paper pins the MultiPaxSys leader); liveness under leader
    failure is what the Samya comparison is about, not this module.

    Commands commit in log order; each command's [on_commit] callback fires
    at the leader once a majority (leader included) has acknowledged it and
    all earlier entries are committed. *)

type 'c msg =
  | Accept of { index : int; command : 'c }
  | Accept_ok of { index : int }
  | Commit of { index : int }

type 'c t

val create :
  engine:Des.Engine.t ->
  id:int ->
  nodes:int list ->
  leader:int ->
  send:(int -> 'c msg -> unit) ->
  ?on_apply:(int -> 'c -> unit) ->
  unit ->
  'c t
(** One instance per node; [leader] names the distinguished proposer.
    [on_apply] fires on every node as entries commit (in order). *)

val is_leader : 'c t -> bool

val submit : 'c t -> 'c -> on_commit:(unit -> unit) -> unit
(** Leader only; raises [Invalid_argument] on a follower. *)

val handle : 'c t -> src:int -> 'c msg -> unit

val resend_pending : 'c t -> unit
(** Leader: re-broadcast Accept for all in-flight entries. Called on a
    timer by the owner to recover from message loss or healed partitions
    (multi-Paxos itself is retry-free). *)

val pending_count : 'c t -> int

val commit_index : 'c t -> int
(** Index of the last committed entry; [-1] when none. *)
