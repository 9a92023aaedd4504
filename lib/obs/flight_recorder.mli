(** Always-on flight recorder: bounded per-lane rings of recent
    causal/protocol events, merged deterministically.

    Each event is written by exactly one engine lane (a site's hosting
    region's lane, or lane [-1] for the driver/cluster injector) and
    stamped with a per-lane sequence number. {!drain} — hooked to the
    sharded DES barrier — moves lane rings into a bounded global buffer;
    {!events} always re-sorts the union by (ts, lane, kind rank, seq),
    so dumps are byte-identical at any [--engine-jobs] and independent
    of when barriers ran. See DESIGN.md §16. *)

type kind =
  | Protocol  (** Avantan decide/abort/recovery, leader-side *)
  | Breaker  (** circuit breaker opened *)
  | Mech  (** adaptive controller mechanism switch *)
  | Shed  (** deadline / admission / queue-expiry shed *)
  | Fault  (** injected partition, heal, crash, recovery *)
  | Slo_breach  (** an SLO objective violated its window *)
  | Invariant  (** conservation auditor failure *)
  | Note

val kind_name : kind -> string

type event = {
  seq : int;
  lane : int;
  ts : float;
  kind : kind;
  site : int;  (** [-1] when not site-scoped *)
  entity : string;  (** [""] when not entity-scoped *)
  detail : string;
}

val compare_event : event -> event -> int
(** Total order (ts, lane, kind rank, seq) — the dump order. *)

type t

val create : ?lane_capacity:int -> ?global_capacity:int -> unit -> t
(** Defaults: 32768 events per lane ring, 131072 in the global buffer.
    Overflow drops the oldest event and counts it in {!dropped}. Raises
    [Invalid_argument] if either capacity is not positive. *)

val reserve : t -> lanes:int -> unit
(** Allocate the rings of lanes [-1 .. lanes-1] up front. A ring is
    otherwise created on its lane's first write, which grows an array
    every lane shares: reserve before lanes write from parallel domains. *)

val record :
  t ->
  lane:int ->
  ts:float ->
  kind:kind ->
  ?site:int ->
  ?entity:string ->
  string ->
  unit

val drain : t -> unit
(** Move lane rings into the global buffer (lane order). Called from the
    shard barrier hook purely to bound per-lane memory; {!events} gives
    the same answer whether or not it ever ran. *)

val events : t -> event list
(** Everything retained, sorted by {!compare_event}. *)

val dropped : t -> int
(** Events lost to ring overflow (honesty counter for dumps). *)

val recorded : t -> int
(** Total events ever recorded, including dropped ones. *)

val line : event -> string
(** One-line human rendering used by figures and incident bundles. *)

type attachment = { recorder : t; hot : Heavy_hitters.Windowed.w option }
(** What arming a system hands it: the recorder plus an optional
    request-path hot-key sketch. *)

(** Late-binding port, same idiom as {!Sink.port}: the disarmed hot path
    costs one load and one branch. *)
type port

val port : unit -> port
val attach : port -> attachment -> unit
val detach : port -> unit
val tap : port -> attachment option
