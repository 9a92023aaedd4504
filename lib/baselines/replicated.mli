(** The replicated-log baselines: MultiPaxSys (§5, baseline i) and the
    CockroachDB-like system (§5, baseline iii).

    Both are the same leader-based design over five replicas of the
    {!Rsm} entity-counter state machine: us-west1, us-central1, us-east1,
    asia-east2, europe-west2 — a Spanner-style placement that keeps a
    majority in US regions, close to the leader at us-central1 (node 1),
    for fast replication. The leader serializes all transactions on a
    given entity, and each read-write transaction costs {e two}
    sequential majority replication rounds (write intent, then commit —
    the lock/commit structure of a Spanner read-write transaction). This
    is what makes a hot aggregate row a throughput bottleneck:
    conflicting transactions cannot pipeline. Admission control keeps at
    most one transaction queued per entity at the leader; excess offered
    load is shed without a reply, so reported latencies reflect protocol
    cost rather than an unbounded open-loop queue (the paper's clients
    behave the same way: committed transactions carry protocol-scale
    latencies while the hot row saturates).

    Reads are served at the leader without replication (§5.8). The
    constraint of Equation 1 is enforced by the replicated state machine
    itself: an acquire that would exceed the maximum is rejected at
    execution time.

    The two constructors differ only in the log and the gateway:
    - {!multipaxsys} runs multi-Paxos under a fixed leader (node 1). A
      client enters through the replica nearest to it, and gets
      [Unavailable] when that replica cannot reach the leader (the
      leader is down, or a partition separates them: Fig. 3d's minority
      side).
    - {!cockroach} runs Raft; the elected leader is the leaseholder and
      the client's gateway. Its Raft bookkeeping is why CockroachDB lands
      slightly behind MultiPaxSys in Table 2b. A client that finds no
      leader backs off 500 ms once, then gets [Unavailable]; a
      transaction whose entries the leader refuses (leadership lost) is
      re-queued at most five times before [Unavailable]. *)

type t

val regions : Geonet.Region.t array
(** The placement, indexed by replica. *)

val multipaxsys : ?seed:int64 -> unit -> t
(** Multi-Paxos under the fixed leader, with a 500 ms loop that re-pushes
    unacknowledged entries (multi-Paxos itself has no retransmission).
    While a majority is unreachable a transaction waits for it: no reply
    arrives. *)

val cockroach : ?seed:int64 -> unit -> t
(** Raft with WAN-scale election timeouts; node 1 has the shortest, so
    the first leaseholder lands in us-central1 deterministically, as
    CockroachDB's lease preferences would arrange. Returned with the
    first election settled: [leader] is [Some 1]. *)

val shard : t -> Des.Shard.t
(** The one-lane shard the system runs on: drive it with
    {!Des.Shard.run}, schedule client work on its lane-0 engine. Faults
    ({!crash_site}, {!partition}, …) must be injected between windows,
    through {!Des.Shard.schedule_global}. *)

val set_net_tracer : t -> Geonet.Network.tracer option -> unit
(** Install a message-hop observer on the internal network (the network
    itself is not exposed); [None] removes it. *)

val obs_port : t -> Obs.Sink.port
(** Late-bound observability port. With a sink attached, traced
    transactions record their causal lifecycle (gateway acceptance,
    admission queueing, the intent and commit replication phases, leader
    service), so [explain] can attribute their latency. *)

val net_stats : t -> int * int * int
(** [(sent, delivered, dropped)] counters of the internal network. *)

val init_entity : t -> entity:Samya.Types.entity -> maximum:int -> unit

val submit :
  t ->
  region:Geonet.Region.t ->
  Samya.Types.request ->
  reply:(Samya.Types.response -> unit) ->
  unit

val leader : t -> int option
(** The replica currently leading the log. *)

val crash_site : t -> int -> unit
val recover_site : t -> int -> unit
val partition : t -> int list list -> unit
val heal : t -> unit

val total_acquired : t -> entity:Samya.Types.entity -> int
(** Committed acquires minus releases, from the leader's state machine
    (replica 0's while no leader is known). *)

val committed_txns : t -> int

val check_invariant : t -> entity:Samya.Types.entity -> maximum:int -> (unit, string) result
