(** Discrete-event simulation engine.

    Virtual time is a [float] in {e milliseconds}. Events are closures
    scheduled at absolute or relative times and executed in non-decreasing
    time order; simultaneous events run in scheduling order. An event may
    schedule further events, so arbitrary protocols unfold from an initial
    seed event.

    Timers are cancellable events — the building block for protocol
    timeouts (leader-failure detection, retry loops). *)

type t

type timer
(** Handle to a scheduled, cancellable event. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time [0.0]. [seed] (default [42L]) initialises the root
    {!Rng.t} from which all simulation randomness derives. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val rng : t -> Rng.t
(** The engine's root generator. Subsystems should [Rng.split] it once at
    construction so their draws do not interleave. *)

val schedule : t -> delay_ms:float -> (unit -> unit) -> unit
(** [schedule t ~delay_ms f] runs [f] at [now t +. delay_ms]. A negative
    delay is clamped to [0.] (runs after currently pending events at the
    same instant). *)

val schedule_at : t -> time_ms:float -> (unit -> unit) -> unit
(** Absolute-time variant of {!schedule}. Times in the past are clamped to
    [now]. *)

val timer : ?label:string -> t -> delay_ms:float -> (unit -> unit) -> timer
(** Like {!schedule} but returns a handle for {!cancel}. A [label] makes
    the timer visible to the {!tracer} installed when it is armed
    (fired/cancelled events attributed by name); otherwise it is a plain,
    untraced timer. *)

(** {2 Event lines}

    A line is a FIFO of events with one callback, for a stream whose
    times never decrease (a client's releases at [now + lifetime], its
    attempts' timeouts at [now + timeout]). Only the line's head sits in
    the queue, so a thousand held grants cost one queue entry, not a
    thousand. Each entry still takes its place in the tie order when it
    is pushed, captures the ambient trace context as {!schedule_at} does,
    and fires as one event.

    A line also drops entries that have become no-ops: when an entry
    fires, the entries behind it whose payload is no longer live are
    removed without an event, and a payload that is not live when its
    entry fires does not reach the callback. A run's execution order is
    exactly that of one {!schedule_at} per entry whose closure does
    nothing once its payload is dead; only the no-op events are
    missing. *)

type 'a line

val line : t -> dummy:'a -> live:('a -> bool) -> ('a -> unit) -> 'a line
(** [line t ~dummy ~live f] is an empty line on [t] whose entries run [f]
    on their payload while [live] holds of it. [dummy] fills free slots:
    a fired or dropped payload is not kept reachable. Precondition: a
    payload for which [live] is [false] never becomes live again (the
    line may already have dropped it); [fun _ -> true] keeps every
    entry. *)

val line_push : 'a line -> time_ms:float -> 'a -> unit
(** [line_push l ~time_ms v] runs [f v] at [time_ms] (clamped to [now]
    like {!schedule_at}). Raises [Invalid_argument] if [time_ms] is below
    the time of the line's previous push. *)

val line_last : 'a line -> float
(** The time of the line's latest push ([neg_infinity] before the
    first): the least time the next {!line_push} accepts. *)

val cancel : timer -> unit
(** Cancelling an already-fired or cancelled timer is a no-op. *)

val pending : t -> int
(** Number of entries in the event queue. A non-empty {!line} counts
    once, for its head: [0] still means no event is left. *)

val step : t -> bool
(** Execute the next event. [false] when the queue is empty. *)

val run : ?until_ms:float -> t -> unit
(** Drain the queue. With [until_ms], stop once the next event would fire
    strictly after that time; the clock is then advanced to [until_ms]. *)

val run_for : t -> float -> unit
(** [run_for t d] is [run t ~until_ms:(now t +. d)]. *)

(** {2 Windowed execution}

    The primitives {!Shard} builds conservative lookahead windows from.
    They are ordinary single-engine operations — nothing here knows about
    domains or lanes. *)

val next_due : t -> float
(** Time of the earliest pending event, or [infinity] when the queue is
    empty — a shard coordinator derives the global horizon from the
    minimum across lanes. *)

val run_before : t -> limit:float -> unit
(** Execute every event with timestamp {e strictly below} [limit], in
    order. Unlike {!run}, the clock is left at the last executed event
    (not forced to [limit]): the coordinator advances clocks explicitly
    at window barriers. Events at exactly [limit] stay queued. *)

val catch_up_to : t -> time_ms:float -> unit
(** Advance the clock to [time_ms] if it is behind (never moves it
    backwards). Called at window barriers so every lane agrees on the
    time before barrier-aligned events (fault injections) execute. *)

val set_id_namespace : t -> base:int -> stride:int -> unit
(** Make {!fresh_id} draw from the arithmetic sequence
    [base + stride, base + 2*stride, …]. Sharded runs give lane [i] the
    namespace [(i, lanes)] so id spaces never collide across lanes; the
    default is [(0, 1)] — the legacy 1, 2, … sequence. Raises
    [Invalid_argument] if [base < 0] or [stride < 1]. *)

(** {2 Tracing}

    A tracer observes the engine without perturbing it: callbacks fire at
    the same virtual times and in the same order whether or not one is
    installed, so enabling observability cannot change a run. The engine
    deliberately knows nothing about the observability layer — the record
    uses only primitive types and the wiring lives upstream. *)

type tracer = {
  on_timer_fired : label:string -> armed_ms:float -> now_ms:float -> unit;
      (** a labelled timer's callback is about to run *)
  on_timer_cancelled : label:string -> armed_ms:float -> now_ms:float -> unit;
      (** a labelled timer's slot was reached after cancellation *)
  after_step : now_ms:float -> pending:int -> unit;
      (** after every executed event, with the queue depth ({!pending}) *)
}

val set_tracer : t -> tracer option -> unit
(** Install or remove the tracer. With [None] (the default) the only cost
    is one load-and-branch per event. *)

(** {2 Ambient trace context}

    The engine carries the {!Trace_context.t} of the event currently
    executing. {!schedule} (and therefore {!timer}) captures it: an event
    scheduled while a context is active runs under that same context, so
    lineage flows through arbitrary chains of timers and callbacks without
    any signature change. When the ambient context is {!Trace_context.none}
    — every untraced run — the capture is skipped entirely; the check is a
    single physical-equality branch and allocates nothing. *)

val current_context : t -> Trace_context.t
(** Context of the event being executed, or {!Trace_context.none}. *)

val with_context : t -> Trace_context.t -> (unit -> 'a) -> 'a
(** [with_context t ctx f] runs [f] with [ctx] ambient, restoring the
    previous context afterwards. Events scheduled inside inherit [ctx]. *)

val fresh_id : t -> int
(** Next id from the engine's deterministic counter (1, 2, …). Used for
    trace ids and causal edge ids; drawing one consumes no simulation
    randomness. *)
