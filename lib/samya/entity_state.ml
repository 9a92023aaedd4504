(* One in-flight peer-borrow conversation (the Borrow mechanism):
   [b_to_ask] is the proximity-ordered list of peers not yet asked,
   [b_patience] the per-ask give-up timer. The request that triggered the
   borrow sits in [queue] like any parked request; [b_ctx]/[b_t0] keep its
   lineage and start time for the causal mech.borrow phase. *)
type borrow = {
  mutable b_to_ask : int list;
  mutable b_patience : Des.Engine.timer option;
  mutable b_obtained : int;
  b_ctx : Des.Trace_context.t;
  b_t0 : float;
}

type t = {
  core : t Entity_map.core;
  queue :
    (Types.request * Types.reply * Des.Trace_context.t * float) Queue.t;
      (** last component: the entry's effective deadline — the request's
          own, tightened by the site's default budget at enqueue time *)
  mutable queue_peak : int;
  tracker : Demand_tracker.t;
      (** per-epoch net token consumption and peak concurrent draw *)
  mutable applied_origins : Consensus.Ballot.Set.t;
      (** decisions already applied — each instance moves tokens exactly
          once, whether it arrives via the protocol or via recovery;
          persistent, so a durable image shares it instead of copying *)
  mutable decided_log : Protocol.value list;
      (** decisions this site has seen, newest first, capped at
          [decided_log_retention]; answers the Recovery_query of a peer
          that was down when they happened *)
  mutable decided_log_len : int;
  mutable av : Avantan_core.t option;
  mutable last_redistribution_ms : float;
  mutable last_proactive_check_ms : float;
  mutable backoff_ms : float;
      (** current redistribution spacing: the configured cooldown normally,
          doubled (capped) after each instance that failed to satisfy this
          site — triggering again during a global token famine only burns
          synchronization rounds *)
  mutable request_scale : float;
      (** multiplier on the requested headroom, halved after each
          unsatisfied instance: Algorithm 2's rejection is all-or-nothing,
          so when the pool runs low a site must shrink its ask to drain
          what remains instead of being rejected repeatedly *)
  mutable consec_aborts : int;
      (** consecutive aborted instances, for the circuit breaker *)
  mutable breaker_open_until : float;
      (** while [now] is below this the breaker is open: no new instances
          for this entity, local-escrow-only service *)
  mutable breaker_trips : int;
  mutable borrow : borrow option;
      (** in-flight peer borrow; requests park behind it like they do
          behind a redistribution ([None] unless the entity runs under
          Borrow) *)
  mutable ctl_mech : Config.Controller.mechanism;
      (** the mechanism currently handling this entity's shortfalls *)
  mutable ctl_pinned : Config.Controller.policy option;
      (** per-entity policy override (the org escalation topology pins
          tiers); [None] = the site-wide configured policy *)
  mutable ctl_since_ms : float;  (** when [ctl_mech] was entered (dwell) *)
  mutable ctl_cooldown_until : float;
      (** no further switch before this time *)
  mutable ctl_win_start : float;  (** current signal window's start *)
  mutable ctl_served : int;  (** window: acquires served from the pool *)
  mutable ctl_shortfall : int;  (** window: shortfall events *)
  mutable ctl_borrows : int;  (** window: borrows finished *)
  mutable ctl_borrow_fails : int;
      (** window: borrows that ended unsatisfied *)
  ctl_wait : Obs.Quantile_sketch.t option;
      (** window: engagement latencies (shortfall -> mechanism outcome);
          allocated only when the controller is on, so the million-key
          arena pays nothing *)
  mutable ctl_switches : int;  (** run statistic: mechanism switches *)
}

(* The mechanism an entity starts under: the pin when the effective
   policy is static (a disabled controller pins Redistribute), the
   cheapest tier (escrow-while-cold) when adaptive. *)
let initial_mechanism (config : Config.t) =
  match Config.Controller.effective_policy config.Config.controller with
  | Config.Controller.Static m -> m
  | Config.Controller.Adaptive -> Config.Controller.Escrow

(* Prediction look-ahead window (§4.2): 5 s of compressed trace time
   corresponds to the paper's 5-minute epochs. *)
let epoch_ms = 5_000.0

(* Demand history kept for the forecaster, in epochs. *)
let history_epochs = 64

let create ~engine ~(config : Config.t) ~(core : t Entity_map.core) =
  {
    core;
    queue = Queue.create ();
    queue_peak = 0;
    tracker =
      Demand_tracker.create ~engine ~epoch_ms ~capacity:history_epochs;
    applied_origins = Consensus.Ballot.Set.empty;
    decided_log = [];
    decided_log_len = 0;
    av = None;
    last_redistribution_ms = neg_infinity;
    last_proactive_check_ms = neg_infinity;
    backoff_ms = config.Config.redistribution_cooldown_ms;
    request_scale = 1.0;
    consec_aborts = 0;
    breaker_open_until = neg_infinity;
    breaker_trips = 0;
    borrow = None;
    ctl_mech = initial_mechanism config;
    ctl_pinned = None;
    ctl_since_ms = 0.0;
    ctl_cooldown_until = neg_infinity;
    ctl_win_start = 0.0;
    ctl_served = 0;
    ctl_shortfall = 0;
    ctl_borrows = 0;
    ctl_borrow_fails = 0;
    ctl_wait =
      (if config.Config.controller.Config.Controller.enabled then
         Some (Obs.Quantile_sketch.create ())
       else None);
    ctl_switches = 0;
  }

let entity t = t.core.Entity_map.name

let core t = t.core

(* Crash-amnesia recovery: overwrite the ledger with the durable image and
   reset everything volatile. The demand tracker is deliberately left
   alone — it is soft state that only steers prediction quality, and the
   recovering process has no better estimate than the history it kept
   in the simulated stable store of the harness (a fresh tracker would
   merely predict zero for a few epochs). The protocol instance ([av]) is
   reattached separately by {!Protocol_driver}. *)
let restore t ~(config : Config.t) ~tokens_left ~acquired_net ~applied_origins
    ~decided_log =
  t.core.Entity_map.tokens_left <- tokens_left;
  t.core.Entity_map.tokens_wanted <- 0;
  t.core.Entity_map.acquired_net <- acquired_net;
  t.core.Entity_map.exposed <- false;
  Queue.clear t.queue;
  t.applied_origins <- applied_origins;
  t.decided_log <- decided_log;
  t.decided_log_len <- List.length decided_log;
  t.av <- None;
  t.last_redistribution_ms <- neg_infinity;
  t.last_proactive_check_ms <- neg_infinity;
  t.backoff_ms <- config.Config.redistribution_cooldown_ms;
  t.request_scale <- 1.0;
  t.consec_aborts <- 0;
  t.breaker_open_until <- neg_infinity;
  (* In-flight borrows die with the process (a grant already sent by a
     peer still lands in the recovered ledger via the network handler);
     controller state restarts from the initial tier with fresh windows. *)
  (match t.borrow with
  | Some b -> (
      t.borrow <- None;
      match b.b_patience with
      | Some timer -> Des.Engine.cancel timer
      | None -> ())
  | None -> ());
  t.ctl_mech <- initial_mechanism config;
  t.ctl_since_ms <- 0.0;
  t.ctl_cooldown_until <- neg_infinity;
  t.ctl_win_start <- 0.0;
  t.ctl_served <- 0;
  t.ctl_shortfall <- 0;
  t.ctl_borrows <- 0;
  t.ctl_borrow_fails <- 0;
  Option.iter Obs.Quantile_sketch.clear t.ctl_wait
(* [queue_peak], [breaker_trips], [ctl_switches] and the per-entity pin
   ([ctl_pinned], topology not volatile state) are run statistics, not
   protocol state: they survive recovery like the handler's counters do. *)

let participating t =
  match t.av with
  | Some av -> Avantan_core.participating av
  | None -> t.core.Entity_map.exposed

(* Requests must queue while either kind of token-movement engagement is
   in flight: a protocol instance or a peer borrow (one extra load and
   branch). *)
let parked t =
  match t.borrow with Some _ -> true | None -> participating t

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Remember a decided value for peer recovery, newest first, dropping
   entries beyond the retention cap. *)
let record_decision t ~retention value =
  t.decided_log <- value :: t.decided_log;
  if t.decided_log_len >= retention then
    (* Already full: drop the oldest entry to make room. *)
    t.decided_log <- take retention t.decided_log
  else t.decided_log_len <- t.decided_log_len + 1

let decided_log t = t.decided_log

let decided_log_length t = t.decided_log_len

(* The decisions that involve [peer]: those are the instances that may
   have moved its tokens. *)
let decisions_for t ~peer =
  List.filter (fun value -> Protocol.mem_site value peer) t.decided_log
