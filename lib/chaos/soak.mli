(** One reproducible chaos run: build a Samya cluster, drive a random but
    seed-determined workload, inject the {!Nemesis} schedule for the same
    seed, probe recovery-to-service latency after every crash, then drain
    to quiescence and run the {!Auditor}.

    Everything — cluster RNG, workload arrivals, fault schedule — derives
    from the single [seed], so a failure report's printed repro line
    replays the identical execution. *)

type report = {
  seed : int;
  variant : Samya.Config.variant;
  amnesia : bool;
  sync : Storage.Durable.sync_policy;
  schedule : Nemesis.schedule;
  injected : int;  (** faults injected *)
  healed : int;  (** faults healed (equal to [injected] after the run) *)
  granted : int;
  rejected : int;
  unavailable : int;
  redistributions : int;
  recovery_probes : (int * float) list;
      (** per crash fault: (site, ms from recovery until the site answered
          a direct acquire — recovery-to-service latency) *)
  durable_syncs : int;  (** stable-storage flushes across all sites *)
  duplicated : int;  (** duplicate deliveries the network injected *)
  violations : Auditor.violation list;
}

val run :
  ?n_sites:int ->
  ?duration_ms:float ->
  ?maximum:int ->
  ?amnesia:bool ->
  ?sync:Storage.Durable.sync_policy ->
  ?engine_jobs:int ->
  variant:Samya.Config.variant ->
  seed:int ->
  unit ->
  report
(** Defaults: 5 sites, 120 s of traffic (plus a drain tail), maximum 5000,
    crash-amnesia with write-through ([Sync_always]) durability,
    [engine_jobs = 1] (the region-sharded cluster's worker domains).
    Windows drain in parallel: the auditor keeps its state per site and
    the soak its counters per region and probe, merged in a fixed order,
    so the report is byte-identical at every jobs setting. *)

val passed : report -> bool
(** No violations. *)

val repro_line : report -> string
(** The one-command reproduction, e.g.
    ["samya_cli chaos --seed 7 --variant star"]. *)

val pp_report : Format.formatter -> report -> unit
