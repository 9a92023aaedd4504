(** Experiments `table2b` / `fig3b`: commit latency percentiles and
    throughput over an hour of contentious load for all five systems
    (§5.3).

    The paper's headline results to reproduce in shape:
    - latency ordering: Samya[(n+1)/2] < Samya[*] < Dem./Escrow <<
      MultiPaxSys < CockroachDB at every percentile (Table 2b);
    - Samya commits ~16-18x more transactions than MultiPaxSys/CockroachDB
      and ~1.3x more than Demarcation/Escrow (Fig. 3b);
    - Avantan[(n+1)/2] executes far fewer redistributions than Avantan[*]
      (208 vs 792 in the paper). *)

val builders : Lab.context -> (string * (unit -> Systems.facade)) list
(** The five systems in fixed display order, as thunks (shared with the
    trace capture, {!Exp_trace}; [fig3c]/[fig3d] and [ext2] take a
    subset). The Samya systems follow {!Pool.engine_jobs}. *)

val scenario : Scenario.t
(** The [table2b] plan: the five {!builders} on one hour of the Azure
    stream (10 min quick), rendered as Table 2b, Fig. 3b and the headline
    ratios. *)
