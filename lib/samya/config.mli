(** Site/cluster configuration, including the ablation switches used by the
    evaluation (Figs. 3e, 3f).

    Knob families that accreted across the overload and controller work are
    grouped into validated sub-records ({!Admission}, {!Breaker},
    {!Controller}); {!validate} is the single entry point and delegates to
    each sub-record's validator. Single knobs with no family
    ([amnesia_on_crash], [protocol_batch], [deadline_budget_ms]) stay flat. *)

type variant = Majority  (** Avantan[(n+1)/2] *) | Star  (** Avantan[*] *)

(** CoDel-style per-site admission gate on CPU backlog (PR 8). *)
module Admission : sig
  type t = {
    target_ms : float;
        (** sojourn target: when the CPU backlog has exceeded this target
            for a sustained [interval_ms] the site sheds newest acquire
            arrivals ([Rejected_deadline], zero CPU cost) until the backlog
            falls back below half the target. [infinity] (default) disables
            the gate entirely — the disabled path costs one load and one
            branch. *)
    interval_ms : float;
        (** how long the backlog must stay above target before the gate
            enters drop mode — absorbs bursts shorter than this *)
  }

  val default : t
  val enabled : t -> bool
  val validate : t -> (unit, string) result
end

(** Circuit breaker on repeatedly aborting redistributions (PR 8). *)
module Breaker : sig
  type t = {
    threshold : int;
        (** after this many consecutive aborted Avantan instances for one
            entity the site stops triggering new instances for it and
            serves local-escrow-only until [probe_ms] elapses, then
            re-probes with one instance. 0 (default) disables the
            breaker. *)
    probe_ms : float;
        (** how long an open breaker holds before allowing a probe
            instance *)
  }

  val default : t
  val enabled : t -> bool
  val validate : t -> (unit, string) result
end

(** The adaptive contention controller: per-entity online selection of the
    token-movement {!Mechanism} (escrow headroom / peer borrowing / Avantan
    redistribution) from windowed contention, borrow-outcome and wait-p99
    signals, with hysteresis so it cannot flap. *)
module Controller : sig
  type mechanism =
    | Escrow  (** serve from the local pool only; shortfalls reject *)
    | Borrow
        (** demarcation-style peer borrowing: ask peers in proximity order
            for [shortfall + borrow_quantum] tokens, park the queue while
            an ask is in flight *)
    | Redistribute
        (** today's Avantan path: trigger a consensus redistribution and
            park the queue until it decides *)

  val mechanism_name : mechanism -> string

  type policy =
    | Static of mechanism  (** pin one mechanism (the experiment's arms) *)
    | Adaptive  (** run the escalation state machine *)

  val policy_name : policy -> string

  type t = {
    enabled : bool;
        (** [false] (default) runs every entity under the
            [Static Redistribute] pin, the paper's redistribution-only
            wiring (see {!effective_policy}): [policy] is ignored and no
            wait sketch is allocated per entity. *)
    policy : policy;
    window_ms : float;  (** tumbling signal window *)
    escalate_contention : float;
        (** windowed shortfall fraction (shortfalls / (served + shortfalls))
            at or above which the controller escalates one tier *)
    deescalate_margin : float;
        (** de-escalate only when contention falls below
            [escalate_contention * deescalate_margin] — the hysteresis
            band *)
    borrow_fail_escalate : float;
        (** windowed fraction of borrows that ended unsatisfied at or above
            which Borrow escalates to Redistribute *)
    p99_target_ms : float;
        (** windowed p99 of parked-wait time above which Borrow escalates
            to Redistribute; [infinity] disables the latency signal *)
    dwell_ms : float;  (** minimum residence time before any switch *)
    cooldown_ms : float;  (** minimum spacing between consecutive switches *)
    borrow_quantum : int;
        (** extra tokens asked on top of the observed shortfall, so one
            grant covers a little future demand *)
    borrow_patience_ms : float;
        (** per-peer patience before moving to the next peer / giving up *)
  }

  val default : t

  val effective_policy : t -> policy
  (** [policy] when [enabled], else [Static Redistribute]. *)

  val validate : t -> (unit, string) result
end

type t = {
  variant : variant;
  prediction_enabled : bool;  (** [false] = reactive-only (Fig. 3f) *)
  enforce_constraint : bool;  (** [false] = no global limit (Fig. 3e) *)
  redistribution_cooldown_ms : float;
      (** minimum spacing between redistributions triggered by one site —
          guards against redistribution storms under global scarcity *)
  election_timeout_ms : float;  (** leader phase-1 patience *)
  accept_timeout_ms : float;  (** leader phase-2 retry period *)
  cohort_timeout_ms : float;  (** cohort's leader-failure detector *)
  status_retry_ms : float;  (** Avantan[*] recovery retry period *)
  local_processing_ms : float;  (** CPU cost to serve one request locally *)
  decided_log_retention : int;
      (** how many decided values each site keeps per entity (newest
          first) to answer the Recovery-Query of a peer that was down when
          they happened. A crashed site only ever misses decisions from
          its own crash window, so recovery replays correctly as long as
          fewer than this many instances decide while a peer is down;
          older entries are dropped to bound site state. *)
  reallocation_policy : Reallocation.policy;
      (** the pluggable Redistribution Module (§4.4); must be identical at
          every site, since participants compute the outcome locally *)
  amnesia_on_crash : bool;
      (** failure model. [false] (default) is the historical freeze model:
          a crashed site keeps its in-memory state and resumes from it —
          equivalent to assuming every update hits stable storage for
          free. [true] is crash-amnesia: a crash discards all volatile
          state and recovery rebuilds from the durable image (written
          under [durability_sync]) plus decided-log catch-up from peers. *)
  durability_sync : Storage.Durable.sync_policy;
      (** when protocol-critical state (promised/accepted ballots, the
          token ledger, the applied-origins dedupe set) reaches stable
          storage; only meaningful with [amnesia_on_crash]. The default
          [Sync_always] is the Paxos-safe write-through discipline; weaker
          policies trade durability for fewer (simulated) fsyncs and are
          what the chaos auditor exists to catch. *)
  entity_shards : int;
      (** hash shards of the cluster's one {!Entity_map.Directory}
          (name → dense eid, shared by every site's arena), rounded up
          to a power of two; 1 suffices for the single-entity
          experiments, the gateway fleet uses hundreds *)
  entity_capacity : int;
      (** size hint for the entity directory (number of expected
          entities): it pre-sizes the directory's tables, names and
          maxima. A site's arena is not sized by it; its touched index
          grows with the entities that site touches. *)
  protocol_batch : int;
      (** 1 (default): one Avantan machine per entity, the original
          layout. > 1: one site-level machine whose instances piggyback up
          to this many triggered entities' deltas in a single WAN round.
          Batching requires the freeze failure model
          ([amnesia_on_crash = false]). *)
  deadline_budget_ms : float;
      (** default time budget stamped on requests that arrive without a
          deadline of their own: a queued request older than this is
          discarded (shed) instead of replayed when the redistribution
          that parked it ends. [infinity] (default) keeps the historical
          wait-forever behaviour. *)
  admission : Admission.t;  (** per-site admission gate *)
  breaker : Breaker.t;  (** redistribution circuit breaker *)
  controller : Controller.t;  (** adaptive contention controller *)
}

val default : t
(** Tuned for the five-region GCP-like topology: timeouts comfortably above
    the worst one-way latency (~150 ms). Byte-compatible with the pre-grouping
    flat defaults: every sub-record default reproduces the old flat values. *)

val validate : t -> (unit, string) result
(** Rejects inconsistent settings with an explanatory message; the
    overload knobs are NaN-safe (a NaN budget or target is rejected, not
    silently treated as disabled), and so are the protocol timers and
    the CPU and cooldown times, which the event heap would otherwise
    accept as NaN. Delegates to the sub-record validators. *)
