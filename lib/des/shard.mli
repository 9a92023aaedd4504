(** Region-sharded parallel-in-time simulation.

    A shard owns one {!Engine.t} per {e lane} (in Samya, one lane per
    hosting region) and coordinates them with conservative lookahead in
    the style of Chandy–Misra–Bryant: with [t_min] the earliest pending
    event across lanes and [L] the lookahead, every event strictly below
    [t_min + L] can execute with no cross-lane synchronization, because
    the system guarantees that any event one lane schedules onto another
    lies at least [L] virtual ms ahead (in Samya, [L] is the minimum
    cross-region one-way latency).

    Determinism is by construction, not by luck: cross-lane messages
    emitted during a window are buffered in per-(src, dst) channels and
    flushed into the destination heaps at the window barrier in a fixed
    (dst, src, append) order — identical whether the windows themselves
    run on one domain or many. A run with [workers = n] is byte-identical
    to [workers = 1] for every [n].

    Mutations of state shared across lanes (fault injections) must go
    through {!schedule_global}; they execute alone between windows, at a
    barrier where every lane clock agrees. *)

type t

val create : ?seed:int64 -> ?workers:int -> lanes:int -> lookahead_ms:float -> unit -> t
(** [lanes] engines, lane [i] seeded with [Rng.stream_seed seed i] and id
    namespace [(i, lanes)] (see {!Engine.set_id_namespace}). [workers]
    (default 1) is the number of domains used to drain windows; it never
    affects results, only wall time. Raises [Invalid_argument] if
    [lanes < 1] or [lookahead_ms] is not positive and finite. *)

val lanes : t -> int

val lookahead_ms : t -> float

val engine : t -> int -> Engine.t
(** The lane's engine. Scheduling onto it directly is safe only from an
    event already executing on that same lane (or outside any window). *)

val engines : t -> Engine.t array

val now : t -> float
(** Barrier time: all lane clocks agree between windows. Mid-window (from
    inside an event) read the {e lane's own} engine clock instead. *)

val schedule_cross : t -> src:int -> dst:int -> time_ms:float -> (unit -> unit) -> unit
(** Schedule [f] at [time_ms] on lane [dst], from code executing on lane
    [src]. Inside a window the event is buffered in the [(src, dst)]
    channel and flushed at the barrier; outside (during setup or a global
    event) it goes straight into the destination heap. Raises
    [Invalid_argument] if called mid-window with [time_ms] below the
    window horizon — the conservative-lookahead safety contract. *)

val schedule_global : t -> time_ms:float -> (unit -> unit) -> unit
(** Schedule a barrier-aligned event: the window preceding [time_ms] runs
    strictly below it, every lane clock advances to it, then [f] executes
    alone — free to mutate state any lane reads (site liveness,
    partitions, link latency). Globals at the same instant run in
    scheduling order. Raises [Invalid_argument] mid-window. *)

val run : t -> until_ms:float -> unit
(** Advance the whole shard to [until_ms]: alternate conservative windows
    (drained by 1 or [workers] domains) with barrier-aligned globals.
    Events and globals beyond [until_ms] stay queued; every lane clock
    ends at [until_ms] exactly. With [until_ms = infinity] it returns once
    no event or global is left, each clock where its last event left
    it. *)

val in_window : t -> bool
(** [true] while a window is draining. *)

val epoch : t -> int
(** Barriers passed so far: every channel flush ends an epoch. A window
    drains within one epoch, and the globals after its barrier run in the
    next, before that epoch's window. Written only between windows, so
    lanes read it race-free mid-window. *)

val executing_lane : unit -> int
(** The lane the calling domain is draining, or [-1] when it drains none:
    setup, barrier-aligned globals and post-run code. *)
