(** The adaptive-contention scenario — the Mechanism API headline.

    One hot entity on a five-site cluster is driven through a
    three-phase skew ramp: cold and uniform (local escrow suffices),
    moderately home-skewed (a peer borrow is cheaper than consensus),
    then sustained global pressure (only batched Avantan re-division
    tracks demand). Four arms replay the identical stream through the
    contention controller — three with the token-movement mechanism
    pinned (["escrow"], ["borrow"], ["redistribute"]) and one adaptive
    (["adaptive"], last, the traced arm). Output: per-arm outcome table
    with mechanism traffic, per-phase committed-throughput and p99
    tables, the throughput figure, the verdict table (the adaptive arm
    must meet or beat the best static per phase on both axes, within
    tolerance), per-arm SLO summaries, a token-conservation audit and the
    adaptive arm's mechanism timeline from the black box. *)

val plan : quick:bool -> Scenario.plan

val scenario : Scenario.t

val final_mechanism : Scenario.capture -> string
(** The home site's mechanism at the end of the run. *)

type phase_row = { v_name : string; v_tps : float; v_p99 : float }

val phase_rows : quick:bool -> Scenario.capture -> phase_row list
(** Committed txn/s over each phase's wall time and the p99 of its
    committed latencies, in phase order, for a capture at that scale. *)
