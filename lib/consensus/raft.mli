(** Raft consensus (Ongaro & Ousterhout, USENIX ATC'14).

    The replication substrate for the CockroachDB-like baseline (§5,
    baseline iii). Implements the complete core protocol: randomized leader
    election with terms and log-up-to-date voting, AppendEntries log
    replication with consistency checks and conflict truncation, and
    majority commit restricted to current-term entries (the Figure 8 rule).
    Snapshots and membership changes are out of scope — the baseline
    cluster is static and logs stay in (simulated) memory.

    Transport-agnostic like the other protocols: the owner wires [send] to
    a {!Geonet.Network.t} and feeds deliveries to {!handle}. Timers run on
    the simulation engine; {!pause} models a crash (no timers, no sends)
    and {!resume} a recovery with durable state intact. *)

type 'c entry = { term : int; command : 'c }

type 'c msg =
  | Request_vote of { term : int; last_log_index : int; last_log_term : int }
  | Vote of { term : int; granted : bool }
  | Append_entries of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : 'c entry array;
      leader_commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }

type 'c t

type role = Follower | Candidate | Leader

val create :
  engine:Des.Engine.t ->
  id:int ->
  nodes:int list ->
  send:(int -> 'c msg -> unit) ->
  ?election_timeout_ms:float * float ->
  ?heartbeat_ms:float ->
  ?on_apply:(int -> 'c -> unit) ->
  unit ->
  'c t
(** [election_timeout_ms] is the (min, max) randomization range (default
    (150, 300) scaled for WAN use by the caller); [heartbeat_ms] defaults
    to a third of the minimum timeout. [on_apply] fires per node as entries
    commit, in log order. *)

val start : 'c t -> unit
(** Arms the first election timeout. *)

val handle : 'c t -> src:int -> 'c msg -> unit

val submit : 'c t -> 'c -> on_commit:(unit -> unit) -> (int, int option) result
(** At the leader: appends, replicates, returns [Ok index]; [on_commit]
    fires when the entry commits at the leader (dropped on leadership
    loss — the client-side times out and retries, as in a real system).
    At a non-leader: [Error leader_hint]. *)

val role : 'c t -> role
val is_leader : 'c t -> bool
val current_term : 'c t -> int
val commit_index : 'c t -> int
(** [-1] when nothing is committed. *)

val pause : 'c t -> unit
(** Crash: cancels timers and ignores messages until {!resume}. Durable
    state (term, vote, log) survives. *)

val resume : 'c t -> unit
