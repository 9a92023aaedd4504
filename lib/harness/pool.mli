(** Fixed-size domain pool for independent, deterministic trials.

    The pool is a process-wide budget of [jobs - 1] extra worker domains
    (the calling domain always participates, so [jobs = 1] means fully
    sequential, inline execution). {!map} fans its items out over however
    many workers the budget can currently supply and collects results {e in
    input order}, so a parallel run of pure tasks is observationally
    identical to [List.map] — the property the bench harness relies on for
    byte-identical output at any [--jobs] level.

    Nested {!map} calls are safe: inner calls simply find the budget empty
    and run inline on their caller's domain. Tasks must not depend on
    shared mutable state unless that state is independently synchronised
    (see [Lab]'s fitted-model caches). *)

val set_jobs : int -> unit
(** Set the global parallelism level (clamped to at least 1). Call once,
    before any {!map}, from the main domain. *)

val jobs : unit -> int
(** The configured parallelism level (default 1). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

val set_engine_jobs : int -> unit
(** Process-wide default for the worker-domain count of every sharded
    Samya simulation built by {!Systems.samya} (the CLI's
    [--engine-jobs]). Orthogonal to {!set_jobs}, which parallelises
    {e across} independent runs; results are byte-identical for every
    value. Raises [Invalid_argument] below 1. *)

val engine_jobs : unit -> int
(** The configured engine worker count (default 1). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f items] applies [f] to every item, possibly in parallel, and
    returns the results in input order. If any application raises, the
    first exception (in completion order) is re-raised after all workers
    have joined; remaining unstarted items are skipped. *)
