(** The chaos runner: build a Samya cluster, drive a random but
    seed-determined workload over a set of keys, inject the {!Nemesis}
    schedule for the same seed, optionally probe recovery-to-service
    latency after every crash, then drain to quiescence and run the
    {!Auditor}.

    Everything — cluster RNG, workload arrivals, fault schedule — derives
    from the single [seed], so a failure report's printed repro line
    replays the identical execution. Every chaos caller runs through
    {!run}: the soak experiment and [samya_cli chaos] ({!single_key}), the
    chaos tests and the census ({!multi_key}). *)

type workload = {
  keys : (Samya.Types.entity * int) list;
      (** every key with its maximum; the recovery probes acquire the
          first *)
  hot : bool;
      (** register every key hot ({!Samya.Cluster.init_entity}) rather
          than as a cold fleet ({!Samya.Cluster.register_entities}); under
          crash-amnesia both register hot, so this matters under the
          freeze model only *)
  mean_gap_ms : float;  (** mean of each client's exponential think time *)
  duration_ms : float;  (** virtual time of client traffic and faults *)
  probes : bool;  (** probe recovery-to-service after every crash *)
}

val single_key : workload
(** ["VM"] at 5000, hot, a 120 ms mean gap, 120 s, recovery probes. *)

val multi_key : workload
(** [key00] .. [key39] at 30 each, cold, a 40 ms mean gap, 45 s, no
    probes. *)

val single_key_config : Samya.Config.t
(** [Config.default] under crash-amnesia with write-through
    ([Sync_always]) durability. *)

val multi_key_config : Samya.Config.t
(** [Config.default] under the freeze crash model with prediction off,
    [protocol_batch = 8], 4 entity shards and room for {!multi_key}'s
    keys. *)

type report = {
  seed : int;
  config : Samya.Config.t;
  schedule : Nemesis.schedule;
  injected : int;  (** faults injected *)
  healed : int;  (** faults healed (equal to [injected] after the run) *)
  granted : int;
  rejected : int;
  unavailable : int;
  redistributions : int;
  recovery_probes : (int * float) list;
      (** per answered probe, in reply order: (site, ms from recovery
          until the site answered a direct acquire — recovery-to-service
          latency) *)
  unanswered_probes : int list;
      (** the sites whose probe got no answer before the drain ended, in
          crash order *)
  durable_syncs : int;  (** stable-storage flushes across all sites *)
  duplicated : int;  (** duplicate deliveries the network injected *)
  violations : Auditor.violation list;
      (** {!Auditor.check_cluster} over every key, at quiescence *)
  over_grants : (Samya.Types.entity * string) list;
      (** every key whose quiescent Equation-1 audit
          ({!Samya.Cluster.check_invariant}) fails, with its detail, in
          key order *)
  parked : int;  (** requests still queued at every site, summed over the keys *)
  participating : (int * Samya.Types.entity) list;
      (** the (site, key) pairs whose site still takes part in a protocol
          instance for the key, by site then key *)
  live_violations : int;  (** the auditor's live-check violations *)
}

val run :
  ?n_sites:int ->
  ?engine_jobs:int ->
  config:Samya.Config.t ->
  workload:workload ->
  seed:int ->
  unit ->
  report
(** Defaults: 5 sites, [engine_jobs = 1] (the region-sharded cluster's
    worker domains). Windows drain in parallel: the auditor keeps its
    state per site and the runner its counters per region and probe,
    merged in a fixed order, so the report is byte-identical at every
    jobs setting. *)

val passed : report -> bool
(** No violations. *)

val repro_line : report -> string
(** The one-command reproduction of a {!single_key} run, e.g.
    ["samya_cli chaos --seed 7 --variant star"]. *)

val pp_report : Format.formatter -> report -> unit
