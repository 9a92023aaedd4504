(** Replays a request stream against a system and collects the paper's two
    performance measures: commit latency (client-measured, committed
    transactions only) and throughput (committed transactions per second,
    windowed).

    Requests are scheduled open-loop at their trace arrival times —
    backpressure never slows the offered load, which is what makes the hot
    entity hot. Failure schedules (server crashes, client crashes,
    partitions) are injected at their virtual times. *)

type event = { at_ms : float; action : unit -> unit }

type retry = {
  max_attempts : int;  (** total attempts including the first; >= 1 *)
  base_backoff_ms : float;
      (** delay before attempt 2 (0 = naive immediate retry); doubled per
          further attempt *)
  max_backoff_ms : float;  (** cap on the doubled backoff *)
  jitter : float;
      (** fraction in [0, 1): each delay is scaled by [1 - jitter * u]
          with [u] uniform per draw (0 = deterministic backoff) *)
  jitter_seed : int64;
      (** root of the per-client jitter streams; client [c] draws from
          [Des.Rng.stream jitter_seed c] on its own lane, so retry
          schedules are byte-identical at any [--engine-jobs] *)
}
(** Client retry policy. Timed-out acquires/reads and shed
    ([Rejected_deadline]) requests of any kind re-enter the stream as
    causally-linked attempts on the same trace root; timed-out releases
    never retry (the original may have been applied late, and a doubled
    release would mint tokens). Attempts beyond [max_attempts] become the
    terminal timeout/shed outcome. *)

type spec = {
  client_regions : Geonet.Region.t array;
      (** region of each client index referenced by the stream's [site] *)
  requests : Trace.Workload.request array;  (** time-sorted *)
  duration_ms : float;  (** measurement horizon (relative to run start) *)
  drain_ms : float;  (** extra simulated time for in-flight replies *)
  window_ms : float;  (** throughput window width *)
  events : event list;  (** failure injections etc., relative times *)
  client_crash : (float * int) list;
      (** (time, client index): stop that client's requests from then on *)
  client_timeout_ms : float;
      (** replies slower than this count as failures, not commits (default
          infinity) *)
  grant_driven_release_ms : float option;
      (** [Some lifetime]: ignore the stream's release requests and have
          every granted acquire schedule its own release [lifetime] later —
          real VM lifetime semantics, used by the M_e sweep where a tight
          limit must throttle the token flow (default [None]) *)
  obs : Obs.Sink.t option;
      (** when set, the driver records one span per request on the
          issuing client's trace lane (tid 1000 + client, outcome in the
          span args) plus [driver.*] counters and the
          [driver.commit_latency_ms] histogram, and stamps a fresh causal
          trace root on every request so the system's work on its behalf
          is attributable (default [None]) *)
  slo : Obs.Slo.t option;
      (** when set, every counted reply feeds the SLO monitor — commits
          with their client-measured latency, rejections, unavailables,
          sheds and timeouts as classed aborts. Each client writes its own
          {!Obs.Slo.Feed} window cells; after the run they are absorbed in
          client order and evaluated in window order. The merge is exact,
          so the report is identical at every [--engine-jobs] setting
          (default [None]) *)
  flight : Obs.Flight_recorder.t option;
      (** when set alongside [slo], each violated objective is recorded
          into lane -1 of the recorder when the windows are evaluated
          after the run, stamped with the window's nominal end in
          absolute virtual time (default [None]) *)
  track_entities : bool;
      (** when set, counted replies of entity-named requests (the stream's
          [entity <> ""]) additionally accumulate per-entity outcome counts
          and latency aggregates into [result.by_entity] — the
          gateway-fleet per-key attribution (default [false]) *)
  retry : retry option;
      (** when set, timed-out and shed requests re-enter as linked retry
          attempts; with a finite [client_timeout_ms] a watchdog abandons
          each attempt at the timeout (default [None]: submit once and
          wait forever — the historical behaviour) *)
  deadline_budget_ms : float;
      (** per-workload deadline budget: entity-named requests are stamped
          with the absolute deadline [send time + budget], which sites
          propagate and enforce ({!Samya.Config.t.deadline_budget_ms})
          (default [infinity]: no deadline; must be positive) *)
  phases : float array;
      (** interior phase boundaries (ms, strictly ascending): requests
          bucket into [result.by_phase] by first-send time, so [n]
          boundaries produce [n + 1] phases. Retry attempts count toward
          the phase that originated the request. Default [[||]]: no
          per-phase accounting. *)
}

val default_spec : client_regions:Geonet.Region.t array -> requests:Trace.Workload.request array -> duration_ms:float -> spec

type entity_stats = {
  e_committed : int;
  e_rejected : int;
  e_unavailable : int;
  e_shed : int;  (** terminal deadline/admission sheds *)
  e_latency_sum_ms : float;  (** committed requests only *)
  e_latency_max_ms : float;
}

type phase_stats = {
  p_committed : int;
  p_aborted : int;  (** rejected + unavailable + shed + timed out *)
  p_latencies : Stats.Sample_set.t;  (** committed requests only, ms *)
}

type result = {
  committed : int;
  rejected : int;
  unavailable : int;
  shed : int;
      (** terminal [Rejected_deadline] outcomes (deadline or admission) *)
  timed_out : int;
      (** terminal timeouts: attempts the client abandoned with no retry
          left, plus late replies when no retry policy is set *)
  retries : int;  (** re-submitted attempts (excluded from [committed]) *)
  no_reply : int;  (** requests whose reply never arrived (blocked system) *)
  latencies : Stats.Sample_set.t;  (** committed requests only, ms *)
  throughput : Stats.Throughput.t;
  duration_ms : float;
  by_entity : (string * entity_stats) list;
      (** sorted by entity name; empty unless [spec.track_entities] — the
          merge across client slots is deterministic (slot order, then
          entity order), so runs reproduce byte-identically at any
          [--engine-jobs] *)
  by_phase : phase_stats array;
      (** one entry per phase of [spec.phases] (empty when no boundaries
          were given); merged across client slots in slot order, so
          runs reproduce byte-identically at any [--engine-jobs] *)
}

val run : t_system:Systems.facade -> spec -> result
(** Raises [Invalid_argument] before the run starts on an invalid spec:
    a [window_ms] that is not positive and finite, among others. *)

val average_tps : result -> float

val percentile : result -> float -> float

val run_closed :
  t_system:Systems.facade ->
  client_regions:Geonet.Region.t array ->
  requests:Trace.Workload.request array ->
  duration_ms:float ->
  workers_per_client:int ->
  window_ms:float ->
  result
(** Closed-loop replay (Fig. 3h): each client region runs a fixed pool of
    workers that issue their stream's requests back to back, so measured
    throughput reflects per-request latency and server serialization —
    stream arrival times are ignored. *)
