type variant = Majority | Star

(* NaN-safe positivity: [not (x > 0)] also rejects NaN, which would
   otherwise defeat every comparison downstream. *)
let positive x = x > 0.0
let positive_finite x = x > 0.0 && x <> infinity
let non_negative_finite x = x >= 0.0 && x <> infinity

module Admission = struct
  type t = { target_ms : float; interval_ms : float }

  let default = { target_ms = infinity; interval_ms = 100.0 }
  let enabled t = t.target_ms < infinity

  let validate t =
    if not (positive t.target_ms) then
      Error
        (Printf.sprintf
           "admission.target_ms must be positive (got %g): a non-positive sojourn target would put the gate in permanent drop mode (infinity disables it)"
           t.target_ms)
    else if not (positive_finite t.interval_ms) then
      Error
        (Printf.sprintf
           "admission.interval_ms must be positive and finite (got %g): the gate needs a finite observation interval before it starts dropping"
           t.interval_ms)
    else Ok ()
end

module Breaker = struct
  type t = { threshold : int; probe_ms : float }

  let default = { threshold = 0; probe_ms = 5_000.0 }
  let enabled t = t.threshold > 0

  let validate t =
    if t.threshold < 0 then
      Error
        (Printf.sprintf
           "breaker.threshold must be >= 0 (got %d): 0 disables the circuit breaker, k > 0 opens it after k consecutive aborted instances"
           t.threshold)
    else if not (positive_finite t.probe_ms) then
      Error
        (Printf.sprintf
           "breaker.probe_ms must be positive and finite (got %g): an open breaker must eventually re-probe"
           t.probe_ms)
    else Ok ()
end

module Controller = struct
  type mechanism = Escrow | Borrow | Redistribute

  let mechanism_name = function
    | Escrow -> "escrow"
    | Borrow -> "borrow"
    | Redistribute -> "redistribute"

  type policy = Static of mechanism | Adaptive

  let policy_name = function
    | Static m -> "static:" ^ mechanism_name m
    | Adaptive -> "adaptive"

  type t = {
    enabled : bool;
    policy : policy;
    window_ms : float;
    escalate_contention : float;
    deescalate_margin : float;
    borrow_fail_escalate : float;
    p99_target_ms : float;
    dwell_ms : float;
    cooldown_ms : float;
    borrow_quantum : int;
    borrow_patience_ms : float;
  }

  let default =
    {
      enabled = false;
      policy = Adaptive;
      window_ms = 1_000.0;
      escalate_contention = 0.15;
      deescalate_margin = 0.5;
      borrow_fail_escalate = 0.5;
      p99_target_ms = 250.0;
      dwell_ms = 2_000.0;
      cooldown_ms = 1_000.0;
      borrow_quantum = 50;
      borrow_patience_ms = 1_000.0;
    }

  let effective_policy t = if t.enabled then t.policy else Static Redistribute

  let validate t =
    if not (positive_finite t.window_ms) then
      Error
        (Printf.sprintf
           "controller.window_ms must be positive and finite (got %g): signals are computed over tumbling windows"
           t.window_ms)
    else if not (t.escalate_contention > 0.0) || t.escalate_contention > 1.0 then
      Error
        (Printf.sprintf
           "controller.escalate_contention must be in (0, 1] (got %g): it is the windowed shortfall fraction that escalates"
           t.escalate_contention)
    else if not (t.deescalate_margin > 0.0) || t.deescalate_margin >= 1.0 then
      Error
        (Printf.sprintf
           "controller.deescalate_margin must be in (0, 1) (got %g): de-escalation below escalate * margin is what gives the state machine hysteresis"
           t.deescalate_margin)
    else if not (t.borrow_fail_escalate > 0.0) || t.borrow_fail_escalate > 1.0
    then
      Error
        (Printf.sprintf
           "controller.borrow_fail_escalate must be in (0, 1] (got %g): it is the windowed fraction of unsatisfied borrows that escalates to redistribution"
           t.borrow_fail_escalate)
    else if not (positive t.p99_target_ms) then
      Error
        (Printf.sprintf
           "controller.p99_target_ms must be positive (got %g): infinity disables the latency escalation signal"
           t.p99_target_ms)
    else if not (non_negative_finite t.dwell_ms) then
      Error
        (Printf.sprintf
           "controller.dwell_ms must be >= 0 and finite (got %g): minimum residence time in a mechanism"
           t.dwell_ms)
    else if not (non_negative_finite t.cooldown_ms) then
      Error
        (Printf.sprintf
           "controller.cooldown_ms must be >= 0 and finite (got %g): minimum spacing between consecutive switches"
           t.cooldown_ms)
    else if t.borrow_quantum < 0 then
      Error
        (Printf.sprintf
           "controller.borrow_quantum must be >= 0 (got %d): extra tokens requested on top of the observed shortfall per peer ask"
           t.borrow_quantum)
    else if not (positive_finite t.borrow_patience_ms) then
      Error
        (Printf.sprintf
           "controller.borrow_patience_ms must be positive and finite (got %g): a borrower must eventually give up on a silent peer"
           t.borrow_patience_ms)
    else Ok ()
end

type t = {
  variant : variant;
  prediction_enabled : bool;
  enforce_constraint : bool;
  redistribution_cooldown_ms : float;
  local_processing_ms : float;
  decided_log_retention : int;
  amnesia_on_crash : bool;
  durability_sync : Storage.Durable.sync_policy;
  entity_shards : int;
  entity_capacity : int;
  protocol_batch : int;
  deadline_budget_ms : float;
  admission : Admission.t;
  breaker : Breaker.t;
  controller : Controller.t;
}

let default =
  {
    variant = Majority;
    prediction_enabled = true;
    enforce_constraint = true;
    redistribution_cooldown_ms = 2_000.0;
    local_processing_ms = 0.15;
    decided_log_retention = 1_024;
    amnesia_on_crash = false;
    durability_sync = Storage.Durable.Sync_always;
    entity_shards = 1;
    entity_capacity = 16;
    protocol_batch = 1;
    deadline_budget_ms = infinity;
    admission = Admission.default;
    breaker = Breaker.default;
    controller = Controller.default;
  }

(* The CPU and cooldown times are armed on the DES heap, which does not
   check times: a NaN delay silently breaks heap order, so each is refused
   here. *)
let validate t =
  if not (non_negative_finite t.local_processing_ms) then
    Error
      (Printf.sprintf "local_processing_ms must be >= 0 and finite (got %g)"
         t.local_processing_ms)
  else if not (non_negative_finite t.redistribution_cooldown_ms) then
    Error
      (Printf.sprintf
         "redistribution_cooldown_ms must be >= 0 and finite (got %g): minimum spacing between redistributions"
         t.redistribution_cooldown_ms)
  else if t.decided_log_retention < 1 then Error "decided_log_retention must be >= 1"
  else if t.entity_shards < 1 then
    Error
      (Printf.sprintf "entity_shards must be >= 1 (got %d): the entity directory needs at least one shard"
         t.entity_shards)
  else if t.entity_capacity < 1 then
    Error
      (Printf.sprintf "entity_capacity must be >= 1 (got %d): the entity directory cannot start empty"
         t.entity_capacity)
  else if t.protocol_batch < 1 then
    Error
      (Printf.sprintf "protocol_batch must be >= 1 (got %d): 1 = one Avantan instance per entity, > 1 = site-level batching"
         t.protocol_batch)
  else if t.protocol_batch > 1 && t.amnesia_on_crash then
    Error
      "protocol_batch > 1 requires amnesia_on_crash = false: batched site-level instances are not yet written to the per-entity durable images"
  else if not (positive t.deadline_budget_ms) then
    Error
      (Printf.sprintf
         "deadline_budget_ms must be positive (got %g): a non-positive default budget would shed every request on arrival"
         t.deadline_budget_ms)
  else if t.controller.Controller.enabled && t.amnesia_on_crash then
    Error
      "controller.enabled requires amnesia_on_crash = false: borrowed tokens move ledger-to-ledger without a durable-image write, so a crash-amnesia site could forget a grant it made"
  else
    match Admission.validate t.admission with
    | Error _ as e -> e
    | Ok () -> (
        match Breaker.validate t.breaker with
        | Error _ as e -> e
        | Ok () -> (
            match Controller.validate t.controller with
            | Error _ as e -> e
            | Ok () -> (
                match Storage.Durable.validate_policy t.durability_sync with
                | Error reason -> Error ("durability_sync: " ^ reason)
                | Ok () -> Ok ())))
