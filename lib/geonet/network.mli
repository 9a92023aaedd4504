(** Simulated geo-distributed message network.

    Nodes are dense integer ids, each placed in a {!Region.t}. [send]
    delivers a payload to the destination's registered handler after the
    inter-region one-way latency plus log-normal-ish jitter, unless the
    message is dropped (loss probability), a network partition separates the
    two nodes, or either endpoint is crashed.

    The model matches the paper's assumptions: asynchronous network, messages
    can be delayed, dropped or reordered; nodes fail by crashing (no
    Byzantine behaviour). Crash and partition injection are first-class so
    the failure experiments (Figs. 3c, 3d) are ordinary test scenarios. *)

type 'msg t

type 'msg envelope = {
  src : int;
  dst : int;
  sent_at : float;  (** virtual ms when [send] was called *)
  payload : 'msg;
}

val create :
  Des.Shard.t ->
  node_lane:int array ->
  seed:int64 ->
  regions:Region.t array ->
  ?drop_probability:float ->
  ?jitter_fraction:float ->
  unit ->
  'msg t
(** [regions.(i)] places node [i], and node [i] lives on shard lane
    [node_lane.(i)] (see {!Region.lane_assignment}; a one-lane shard
    takes [Array.make n 0]). Every delivery event is scheduled on the
    destination node's lane, crossing lanes over the shard's bounded
    channels. [drop_probability] (default [0.]) applies independently per
    message. [jitter_fraction] (default [0.05]) scales a non-negative
    random additive delay relative to the base latency. Jitter and drop
    randomness comes from one deterministic stream per lane (derived from
    [seed] under a reserved namespace), so results are independent of the
    domain count draining the windows.

    Shared-state mutations (crash, partitions, link overrides,
    probabilities) must execute between windows — at setup, or via
    {!Des.Shard.schedule_global} — and raise [Invalid_argument] if
    attempted mid-window.

    Raises [Invalid_argument] if [drop_probability] is NaN or outside
    [[0, 1]], if [jitter_fraction] is NaN or negative, or on a
    [node_lane] / [regions] length mismatch. *)

val engine_of : _ t -> node:int -> Des.Engine.t
(** The lane engine that runs [node]'s events. Protocol code (sites)
    schedules its timers here. *)

val node_count : _ t -> int

val region_of : _ t -> int -> Region.t

val register : 'msg t -> node:int -> ('msg envelope -> unit) -> unit
(** Installs the delivery handler for [node]. Re-registering replaces the
    handler (used when a node recovers with a fresh protocol state). *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Fire-and-forget. Self-sends are delivered after a small local delay. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** [send] to every node except [src]. *)

val latency_ms : 'msg t -> src:int -> dst:int -> float
(** Base one-way latency between two nodes (no jitter). *)

val crash : _ t -> int -> unit
(** A crashed node neither sends nor receives; messages in flight to it are
    silently lost on arrival. *)

val recover : _ t -> int -> unit

val is_up : _ t -> int -> bool

val set_partition : _ t -> int list list -> unit
(** [set_partition t groups] drops every message whose endpoints fall in
    different groups. Nodes absent from every group form an implicit extra
    group. Replaces any previous partition. *)

val clear_partition : _ t -> unit

val set_drop_probability : _ t -> float -> unit
(** Change the per-message loss rate on the fly (tests heal a lossy
    network before asserting quiescent invariants). Raises
    [Invalid_argument] on NaN or out-of-[[0, 1]] values. *)

val drop_probability : _ t -> float
(** Current global per-message loss rate. *)

(** {2 Per-link fault injection}

    Chaos schedules need asymmetric faults the global knobs cannot express:
    one lossy or slow direction of one link, or a one-way cut where [a]
    hears [b] but not vice versa. Overrides are keyed by the directed pair
    [(src, dst)] and compose with the global settings. *)

val set_link_drop : _ t -> src:int -> dst:int -> float option -> unit
(** Override the loss rate on the directed link [src -> dst]; the effective
    rate is the max of the override and the global probability. [None]
    removes the override. Raises [Invalid_argument] on NaN or
    out-of-[[0, 1]] values. *)

val set_link_extra_latency : _ t -> src:int -> dst:int -> float -> unit
(** Add [extra_ms] of one-way latency on [src -> dst] (latency spike on one
    direction of one link). Jitter scales with the inflated base. Raises
    [Invalid_argument] on NaN or negative values. *)

val block_one_way : _ t -> src:int -> dst:int -> unit
(** Cut the directed link: nothing sent [src -> dst] is delivered while the
    block holds (evaluated at delivery time, like partitions), while
    [dst -> src] traffic is unaffected. *)

val unblock_one_way : _ t -> src:int -> dst:int -> unit

val clear_link_overrides : _ t -> unit
(** Drop every per-link override (heal-all before quiescent audits). *)

val set_duplicate_probability : _ t -> float -> unit
(** Probability that a sent message is delivered twice (the duplicate takes
    an independent jitter draw, so it may arrive before the original —
    exercising at-most-once application logic). Default [0.]; while it is
    exactly [0.] no extra randomness is consumed, keeping legacy runs
    byte-identical. Raises [Invalid_argument] on NaN or out-of-[[0, 1]]
    values. *)

val reachable : _ t -> int -> int -> bool
(** Both endpoints up and in the same partition group. *)

val link_open : _ t -> src:int -> dst:int -> bool
(** [reachable] and the directed link is not one-way blocked — the exact
    delivery-time predicate. *)

val stats_sent : _ t -> int
val stats_delivered : _ t -> int
val stats_dropped : _ t -> int

val stats_duplicated : _ t -> int
(** Number of messages that were queued for duplicate delivery. *)

(** {2 Tracing}

    Message-level observer for the observability layer. Like the engine's
    tracer, installing one cannot perturb the simulation: every random draw
    and delivery happens identically with or without it. [on_send] fires
    when a message leaves an up node; [on_deliver]/[on_drop] fire at the
    delivery instant ([sent_at] preserves the send time, so the pair bounds
    the hop). Messages from a crashed source are dropped before the tracer
    sees a send. *)

type tracer = {
  on_send : src:int -> dst:int -> now_ms:float -> unit;
  on_deliver : src:int -> dst:int -> sent_at:float -> now_ms:float -> unit;
  on_drop : src:int -> dst:int -> sent_at:float -> now_ms:float -> unit;
}

val set_tracer : _ t -> tracer option -> unit
(** Install or remove the observer; [None] (the default) costs one
    load-and-branch per send and per delivery. *)
