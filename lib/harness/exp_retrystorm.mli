(** The retry-storm scenario — the overload-resilience headline.

    A flash sale spikes one entity's demand past its home site's CPU
    capacity just after a partition cuts the home region off from its
    peers, so redistribution aborts repeatedly and the circuit breaker
    trips mid-storm. Four client populations replay the identical stream
    — no retries (arm ["none"]), naive immediate retries (["naive"]),
    exponential backoff with jitter (["backoff"]), and backoff against
    the full overload-resilience stack: deadline propagation, the
    CoDel-style admission gate, the redistribution circuit breaker
    (["admission"], the traced arm). Output: the per-arm outcome and
    server-resilience tables, the throughput figure, the recovery verdict
    (post-heal goodput vs each arm's own pre-fault goodput: naive retries
    stay metastable, backoff plus admission recovers), per-arm SLO
    summaries with the abort-class breakdown, a token-conservation audit
    and the resilient arm's black box. *)

val plan : quick:bool -> Scenario.plan

val scenario : Scenario.t

val recovery : quick:bool -> Scenario.capture -> float * float * float
(** [(pre_fault_tps, post_heal_tps, post/pre)] of a capture at that
    scale — the metastability measure ([nan] ratio if the pre-fault
    window saw no commits). *)
