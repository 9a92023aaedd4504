(** Always-on flight recorder: every causal/protocol event of a run, on
    the per-lane log ({!Lane_log}), merged deterministically.

    Each event names the engine lane it belongs to (a site's hosting
    region's lane, or lane [-1] for the driver/cluster injector) and is
    written into the buffer of the lane executing the write. {!events}
    stable-sorts the log's merge order by (ts, lane, kind rank): the
    merge order is the order one domain runs the writes in, so dumps are
    byte-identical at any [--engine-jobs]. Nothing is dropped. See
    DESIGN.md §16. *)

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
  lane : int;
  ts : float;
  kind : kind;
  site : int;  (** [-1] when not site-scoped *)
  entity : string;  (** [""] when not entity-scoped *)
  detail : string;
}

val compare_event : event -> event -> int
(** (ts, lane, kind rank) — the dump order's key; {!events} keeps record
    order among equal keys. *)

type t

val create : unit -> t
(** An empty recorder on a one-buffer clock ({!Lane_log.single}): for
    writes from one domain until {!bind}. *)

val bind : t -> Lane_log.clock -> unit
(** Move the recorder onto a system's lane clock, so writes from
    parallel lanes land in their own buffers. Arming a system does this.
    Raises [Invalid_argument] once events exist. *)

val record :
  t ->
  lane:int ->
  ts:float ->
  kind:kind ->
  ?site:int ->
  ?entity:string ->
  string ->
  unit

val events : t -> event list
(** Every event, stable-sorted by {!compare_event}. *)

val dropped : t -> int
(** Always [0]: the recorder keeps every event. *)

val recorded : t -> int
(** Total events recorded. *)

val line : event -> string
(** One-line human rendering used by figures and incident bundles. *)

type attachment = { recorder : t; hot : Heavy_hitters.Windowed.w option }
(** What arming a system hands it, through its {!Sink.port}: the recorder
    plus an optional request-path hot-key sketch. *)
