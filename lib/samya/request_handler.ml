type read_ctx = {
  r_entity : Types.entity;
  mutable acc : int;
  mutable replies : int;
  r_reply : Types.reply;
  mutable r_timer : Des.Engine.timer option;
  r_ctx : Des.Trace_context.t;
      (* the fan-out's own lineage, restored around the final reply (the
         last peer answer arrives under its hop's context, not ours) *)
  r_t0 : float;
}

(* What request handling needs from the rest of the site: the prediction
   module's proactive check, and the controller whose mechanisms take
   every shortfall. *)
type deps = {
  alive : unit -> bool;
  proactive : Entity_state.t -> unit;
  broadcast_read_query : entity:Types.entity -> rid:int -> unit;
  persist : Entity_state.t -> unit;
      (** durability hook after a served request moves the token ledger;
          a no-op under the freeze model *)
  heat : Entity_state.t Entity_map.core -> Entity_state.t;
      (** materialise hot state for a cold entity that can no longer be
          served from its core ledger alone (shortfall, or protocol
          exposure) *)
  controller : Controller.t;
      (** owns each entity's current mechanism, which serves every
          shortfall *)
}

type t = {
  config : Config.t;
  engine : Des.Engine.t;
  site_id : int;
  n_sites : int;
  deps : deps;
  obs : Obs.Sink.port;
  lane : int; (* hosting region's engine lane, for flight-recorder writes *)
  pending_reads : (int, read_ctx) Hashtbl.t;
  mutable next_rid : int;
  mutable busy_until : float;
  adm_enabled : bool;
      (* [Config.Admission.enabled], latched at creation: the disabled
         admission path is one load and one branch *)
  adm_target : float;
  adm_interval : float;
      (* the admission sub-record's knobs, cached off the hot gate path *)
  deadline_budget : float;
      (* Config.deadline_budget_ms, cached off the hot enqueue path *)
  mutable adm_above_since : float;
      (* when the CPU backlog first exceeded the sojourn target
         ([neg_infinity] = currently below) *)
  mutable adm_dropping : bool;
  mutable s_acquires : int;
  mutable s_releases : int;
  mutable s_reads : int;
  mutable s_rejected : int;
  mutable s_queued_peak : int;
  mutable s_reactive : int;
  mutable s_shed_deadline : int;
  mutable s_shed_admission : int;
  mutable s_shed_expired : int;
}

let create ~config ~engine ~site_id ~n_sites ?(obs = Obs.Sink.port ()) ?(lane = 0)
    deps =
  {
    config;
    engine;
    site_id;
    n_sites;
    deps;
    obs;
    lane;
    pending_reads = Hashtbl.create 16;
    next_rid = 0;
    busy_until = 0.0;
    adm_enabled = Config.Admission.enabled config.Config.admission;
    adm_target = config.Config.admission.Config.Admission.target_ms;
    adm_interval = config.Config.admission.Config.Admission.interval_ms;
    deadline_budget = config.Config.deadline_budget_ms;
    adm_above_since = neg_infinity;
    adm_dropping = false;
    s_acquires = 0;
    s_releases = 0;
    s_reads = 0;
    s_rejected = 0;
    s_queued_peak = 0;
    s_reactive = 0;
    s_shed_deadline = 0;
    s_shed_admission = 0;
    s_shed_expired = 0;
  }

(* Cluster-level metrics, live only while a sink is attached to the port;
   the unattached path is one load and one branch. *)
let obs_incr t name =
  match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink -> Obs.Metrics.incr (Obs.Metrics.counter sink.Obs.Sink.metrics name)

let obs_queue_depth t depth =
  match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink ->
      Obs.Metrics.set
        (Obs.Metrics.gauge sink.Obs.Sink.metrics "samya.queue.depth")
        (float_of_int depth)

(* Causal lifecycle recording: the ambient trace id, or -1 when the
   current event carries no lineage. Call sites match on [Obs.Sink.tap]
   inline (never through a closure argument) so the unattached path stays
   one load and one branch with no allocation. *)
let causal_trace t =
  let ctx = Des.Engine.current_context t.engine in
  if Des.Trace_context.is_none ctx then -1 else ctx.Des.Trace_context.trace

let now t = Des.Engine.now t.engine

(* Shed events feed the always-on flight recorder (when armed): the
   watchdog's shed-burst rule reads them back. Disarmed cost: one load,
   one branch. *)
let flight_shed t ~entity why =
  match Obs.Sink.flight t.obs with
  | None -> ()
  | Some a ->
      Obs.Flight_recorder.record a.Obs.Flight_recorder.recorder ~lane:t.lane
        ~ts:(now t) ~kind:Obs.Flight_recorder.Shed ~site:t.site_id ~entity why

let served_acquires t = t.s_acquires
let served_releases t = t.s_releases
let served_reads t = t.s_reads
let rejected t = t.s_rejected
let queued_peak t = t.s_queued_peak
let reactive_triggers t = t.s_reactive
let shed_deadline t = t.s_shed_deadline
let shed_admission t = t.s_shed_admission
let shed_queue_expired t = t.s_shed_expired
let admission_dropping t = t.adm_dropping

(* ------------------------------------------------------------------ *)
(* Overload shedding                                                    *)

(* CoDel-style admission gate: watch the CPU backlog (the sojourn a new
   arrival would pay before service) against the target; once it has
   stayed above target for a sustained interval, shed newest acquire
   arrivals until the backlog falls back below half the target. Sheds
   cost no CPU — the whole point is to fail more cheaply than serving.
   Releases are never admission-shed: they return tokens and shrink the
   very backlog the gate is protecting. *)
let admission_shed t request =
  t.adm_enabled
  && begin
       let now_ms = now t in
       let backlog = t.busy_until -. now_ms in
       let target = t.adm_target in
       if backlog > target then begin
         if t.adm_above_since = neg_infinity then t.adm_above_since <- now_ms
         else if
           (not t.adm_dropping)
           && now_ms -. t.adm_above_since >= t.adm_interval
         then t.adm_dropping <- true
       end
       else begin
         t.adm_above_since <- neg_infinity;
         if backlog <= 0.5 *. target then t.adm_dropping <- false
       end;
       t.adm_dropping && (match request with Types.Acquire _ -> true | _ -> false)
     end

(* Shed on arrival: a request that is already dead (deadline passed) or
   that the admission gate drops is answered synchronously — no CPU
   occupancy, no queueing, no ledger movement (conservation-trivial). *)
let overload_shed t request reply =
  if Types.request_deadline request < now t then begin
    t.s_shed_deadline <- t.s_shed_deadline + 1;
    obs_incr t "samya.shed.deadline";
    flight_shed t ~entity:(Types.request_entity request) "deadline";
    reply ~at_ms:(now t) Types.Rejected_deadline;
    true
  end
  else if admission_shed t request then begin
    t.s_shed_admission <- t.s_shed_admission + 1;
    obs_incr t "samya.shed.admission";
    flight_shed t ~entity:(Types.request_entity request) "admission";
    reply ~at_ms:(now t) Types.Rejected_deadline;
    true
  end
  else false

(* The deadline a queue entry carries: the request's own, tightened by the
   site's default budget. Computed once at enqueue so the drain only
   compares. *)
let effective_deadline t request =
  Float.min (Types.request_deadline request) (now t +. t.deadline_budget)

(* Requests occupy the site's CPU for [local_processing_ms] each; the
   reply carries the queueing-for-CPU delay, which is what saturates a
   hot site during demand spikes. The site commits to [response] now, so
   the reply is called now, told when the CPU finishes: the caller's
   return leg starts there, and the finish costs no event of its own. *)
let reply_after_processing t reply response =
  let start = Float.max (now t) t.busy_until in
  let finish = start +. t.config.Config.local_processing_ms in
  t.busy_until <- finish;
  (match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink ->
      let trace = causal_trace t in
      if trace >= 0 then begin
        let log = sink.Obs.Sink.log in
        let arrived = now t in
        if start > arrived then
          Obs.Trace_log.record log
            (Wait
               { trace; site = t.site_id; label = "cpu"; t0 = arrived; t1 = start });
        Obs.Trace_log.record log
          (Service { trace; site = t.site_id; t0 = start; t1 = finish })
      end);
  reply ~at_ms:finish response

let reject_acquire t reply =
  t.s_rejected <- t.s_rejected + 1;
  obs_incr t "samya.acquire.rejected";
  reply_after_processing t reply Types.Rejected

(* Park an acquire behind an in-flight engagement (redistribution or
   borrow); [label] names the causal queue window so `explain` attributes
   the wait to the mechanism that caused it. *)
let park t (ctx : Entity_state.t) request reply ~label =
  Queue.push
    (request, reply, Des.Engine.current_context t.engine,
     effective_deadline t request)
    ctx.queue;
  (match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink ->
      let trace = causal_trace t in
      if trace >= 0 then
        Obs.Trace_log.record sink.Obs.Sink.log
          (Enqueued { trace; site = t.site_id; label; ts = now t }));
  t.s_queued_peak <- max t.s_queued_peak (Queue.length ctx.queue);
  ctx.queue_peak <- max ctx.queue_peak (Queue.length ctx.queue);
  obs_queue_depth t (Queue.length ctx.queue)

(* Shortfall: dispatch to the entity's current mechanism. The verdict
   parks the request (then fires the engagement — ordering matters, DES
   sends can resolve synchronously) or refuses. *)
let serve_shortfall t (ctx : Entity_state.t) request reply ~amount =
  let c = t.deps.controller in
  Controller.note_shortfall c ctx;
  let m = Controller.mechanism c ctx in
  match m.Mechanism.try_acquire ctx ~amount with
  | Mechanism.Park label ->
      (match m.Mechanism.kind with
      | Mechanism.Redistribute ->
          t.s_reactive <- t.s_reactive + 1;
          obs_incr t "samya.reactive.queued"
      | Mechanism.Borrow -> obs_incr t "samya.borrow.queued"
      | Mechanism.Escrow -> ());
      park t ctx request reply ~label;
      m.Mechanism.engage ctx
  | Mechanism.Refuse -> reject_acquire t reply

(* Can [request] be served from the entity's ledger as it stands? A
   release always: it only adds tokens, and a decided value applies as a
   delta against the reported InitVal, so tokens that land mid-instance
   survive it. An acquire only from the local pool, and only while the
   entity takes part in no Avantan instance ([in_instance]): a site that
   spent tokens while an InitVal of its own may still be decided would
   widen the abort-then-redecide race (DESIGN.md §13), so acquires wait
   for the outcome as before. A borrow exposes nothing to consensus. *)
let fits t ~in_instance (core : _ Entity_map.core) request =
  match request with
  | Types.Release _ -> true
  | Types.Acquire { amount; _ } ->
      (not in_instance)
      && ((not t.config.Config.enforce_constraint)
         || core.Entity_map.tokens_left >= amount)
  | Types.Read _ -> (* handled before dispatch *) assert false

(* Serve a single acquire/release against local state. In [drain] mode the
   request is served in the middle of an engagement, or was queued behind
   one that just ended: no proactive check runs, and an unservable acquire
   is rejected rather than engaging again. *)
let serve_local t (ctx : Entity_state.t) request reply ~drain =
  match request with
  | Types.Release { amount; _ } ->
      ctx.core.tokens_left <- ctx.core.tokens_left + amount;
      ctx.core.acquired_net <- ctx.core.acquired_net - amount;
      t.s_releases <- t.s_releases + 1;
      obs_incr t "samya.release.granted";
      t.deps.persist ctx;
      reply_after_processing t reply Types.Granted
  | Types.Acquire { amount; _ } ->
      if not t.config.Config.enforce_constraint then begin
        ctx.core.acquired_net <- ctx.core.acquired_net + amount;
        t.s_acquires <- t.s_acquires + 1;
        obs_incr t "samya.acquire.granted";
        t.deps.persist ctx;
        reply_after_processing t reply Types.Granted
      end
      else if ctx.core.tokens_left >= amount then begin
        ctx.core.tokens_left <- ctx.core.tokens_left - amount;
        ctx.core.acquired_net <- ctx.core.acquired_net + amount;
        t.s_acquires <- t.s_acquires + 1;
        obs_incr t "samya.acquire.granted";
        t.deps.persist ctx;
        reply_after_processing t reply Types.Granted;
        Controller.note_served t.deps.controller ctx;
        if (not drain) && Controller.proactive_allowed ctx then
          t.deps.proactive ctx
      end
      else if drain then reject_acquire t reply
      else serve_shortfall t ctx request reply ~amount
  | Types.Read _ -> (* handled before dispatch *) assert false

(* One parked entry leaves the queue. One that expired while parked is
   discarded: the client is gone (or about to give up), so no CPU is
   burnt on an answer nobody will read. No ledger movement, so
   conservation is untouched. The rest is served under its own lineage,
   not whatever event triggered the drain. [drain:false] lets an
   unservable acquire engage the mechanism again (a redistribution is
   subject to famine backoff) instead of being rejected outright. *)
let unpark t (ctx : Entity_state.t) (request, reply, qctx, deadline) ~drain =
  if deadline < now t then begin
    t.s_shed_expired <- t.s_shed_expired + 1;
    obs_incr t "samya.shed.queue_expired";
    flight_shed t ~entity:(Types.request_entity request) "queue_expired";
    (match Obs.Sink.tap t.obs with
    | None -> ()
    | Some sink ->
        if not (Des.Trace_context.is_none qctx) then
          Obs.Trace_log.record sink.Obs.Sink.log
            (Dequeued
               {
                 trace = qctx.Des.Trace_context.trace;
                 site = t.site_id;
                 ts = now t;
               }));
    reply ~at_ms:(now t) Types.Rejected_deadline
  end
  else if Des.Trace_context.is_none qctx then serve_local t ctx request reply ~drain
  else
    Des.Engine.with_context t.engine qctx (fun () ->
        (match Obs.Sink.tap t.obs with
        | None -> ()
        | Some sink ->
            Obs.Trace_log.record sink.Obs.Sink.log
              (Dequeued
                 {
                   trace = qctx.Des.Trace_context.trace;
                   site = t.site_id;
                   ts = now t;
                 }));
        serve_local t ctx request reply ~drain)

(* Mid-engagement: serve the queue's fitting prefix in FIFO order,
   shedding expired heads, and stop at the first head that does not fit,
   so nothing overtakes a larger head. What is served fits, and starts
   nothing. *)
let rec serve_prefix t (ctx : Entity_state.t) =
  if not (Queue.is_empty ctx.queue) then begin
    let request, _, _, deadline = Queue.peek ctx.queue in
    if
      deadline < now t
      || fits t ~in_instance:(Entity_state.participating ctx) ctx.core request
    then begin
      unpark t ctx (Queue.pop ctx.queue) ~drain:true;
      serve_prefix t ctx
    end
  end

(* While the entity is still engaged, only the fitting prefix leaves.
   Otherwise the whole queue is replayed; if a replayed entry starts a new
   engagement, it parked itself, and the rest queue behind it (the causal
   queue windows simply continue). [reject_unservable] (a borrow that
   ended short) rejects what the pool cannot cover, so a starved entity
   cannot loop. *)
let drain_queue ?(reject_unservable = false) t (ctx : Entity_state.t) =
  if Entity_state.parked ctx then serve_prefix t ctx
  else
    for _ = 1 to Queue.length ctx.queue do
      let entry = Queue.pop ctx.queue in
      if Entity_state.parked ctx then Queue.push entry ctx.queue
      else unpark t ctx entry ~drain:reject_unservable
    done

(* Entry point for an acquire/release on a known entity: record demand,
   then serve in place. While an engagement (redistribution or borrow) is
   in flight, a release is still served, and hands its tokens to the
   queue's fitting prefix; an acquire is served only during a borrow,
   when nothing is queued ahead of it and the pool covers it, and parks
   otherwise. *)
let accept_inner t (ctx : Entity_state.t) request reply =
  Demand_tracker.record ctx.tracker
    ~amount:
      (match request with
      | Types.Acquire { amount; _ } -> amount
      | Types.Release { amount; _ } -> -amount
      | Types.Read _ -> (* handled before dispatch *) assert false);
  if not (Entity_state.parked ctx) then serve_local t ctx request reply ~drain:false
  else
    match request with
    | Types.Release _ ->
        serve_local t ctx request reply ~drain:true;
        serve_prefix t ctx
    | Types.Acquire _ | Types.Read _ ->
        if
          Queue.is_empty ctx.queue
          && fits t ~in_instance:(Entity_state.participating ctx) ctx.core request
        then
          serve_local t ctx request reply ~drain:true
        else
          let label = if ctx.borrow <> None then "borrow" else "redistribution" in
          park t ctx request reply ~label

(* Cold fast path: a request a cold entity's core ledger can serve outright
   — every release, and any acquire within its local pool while the core
   is exposed to no batched instance. No queue, no
   demand tracking, no prediction: a cold entity costs a ledger update and
   the CPU-model reply. Persistence is not consulted (batching and bulk
   registration require the freeze model; amnesia-mode sites heat every
   entity eagerly at registration). *)
let serve_cold t (core : Entity_state.t Entity_map.core) request reply =
  match request with
  | Types.Release { amount; _ } ->
      core.tokens_left <- core.tokens_left + amount;
      core.acquired_net <- core.acquired_net - amount;
      t.s_releases <- t.s_releases + 1;
      obs_incr t "samya.release.granted";
      reply_after_processing t reply Types.Granted
  | Types.Acquire { amount; _ } ->
      if t.config.Config.enforce_constraint then
        core.tokens_left <- core.tokens_left - amount;
      core.acquired_net <- core.acquired_net + amount;
      t.s_acquires <- t.s_acquires + 1;
      obs_incr t "samya.acquire.granted";
      reply_after_processing t reply Types.Granted
  | Types.Read _ -> (* handled before dispatch *) assert false

(* An admitted request: served hot when the entity has hot state, else
   from its cold core's ledger. *)
let admit t (core : Entity_state.t Entity_map.core) request reply =
  match core.Entity_map.hot with
  | Some ctx -> accept_inner t ctx request reply
  | None -> serve_cold t core request reply

(* A request arriving without lineage (no driver upstream) roots its own
   trace here — sites stamp new roots — so site-local causality exists
   even for bare [Site.submit] callers. Called only while a sink is
   attached, so the closure [k] exists only then. *)
let with_root_stamp t (sink : Obs.Sink.t) k =
  let stamp () =
    let trace = causal_trace t in
    if trace >= 0 then
      Obs.Trace_log.record sink.Obs.Sink.log
        (Accepted { trace; site = t.site_id; ts = now t });
    k ()
  in
  if Des.Trace_context.is_none (Des.Engine.current_context t.engine) then
    let root = Des.Trace_context.root ~trace:(Des.Engine.fresh_id t.engine) in
    Des.Engine.with_context t.engine root stamp
  else stamp ()

(* Entry point for an acquire/release: shed on arrival, then serve a cold
   entity from its core ledger while that suffices, and materialise hot
   state the moment it needs queueing, demand history, or
   redistribution. *)
let accept_core t (core : Entity_state.t Entity_map.core) request reply =
  if not (overload_shed t request reply) then begin
    (match core.Entity_map.hot with
    | Some _ -> ()
    | None ->
        if not (fits t ~in_instance:core.Entity_map.exposed core request) then
          ignore (t.deps.heat core));
    match Obs.Sink.tap t.obs with
    | None -> admit t core request reply
    | Some sink -> with_root_stamp t sink (fun () -> admit t core request reply)
  end

(* ------------------------------------------------------------------ *)
(* Reads: global snapshot by fan-out (§5.8)                             *)

let finish_read t rid =
  match Hashtbl.find_opt t.pending_reads rid with
  | None -> ()
  | Some read ->
      (match read.r_timer with Some timer -> Des.Engine.cancel timer | None -> ());
      Hashtbl.remove t.pending_reads rid;
      t.s_reads <- t.s_reads + 1;
      obs_incr t "samya.read.served";
      let serve () =
        (match Obs.Sink.tap t.obs with
        | None -> ()
        | Some sink ->
            let trace = causal_trace t in
            if trace >= 0 then
              Obs.Trace_log.record sink.Obs.Sink.log
                (Wait
                   {
                     trace;
                     site = t.site_id;
                     label = "read";
                     t0 = read.r_t0;
                     t1 = now t;
                   }));
        reply_after_processing t read.r_reply
          (Types.Read_result { tokens_available = read.acc })
      in
      (* The closing event (last peer reply or the timeout) runs under its
         own hop's context; restore the fan-out's lineage for the reply. *)
      if Des.Trace_context.is_none read.r_ctx then serve ()
      else Des.Engine.with_context t.engine read.r_ctx serve

(* Global-snapshot read fan-out patience. *)
let read_timeout_ms = 600.0

let serve_read_inner t ~entity ~own reply =
  if t.n_sites = 1 then begin
    t.s_reads <- t.s_reads + 1;
    obs_incr t "samya.read.served";
    reply_after_processing t reply (Types.Read_result { tokens_available = own })
  end
  else begin
    let rid = t.next_rid in
    t.next_rid <- t.next_rid + 1;
    let read =
      {
        r_entity = entity;
        acc = own;
        replies = 0;
        r_reply = reply;
        r_timer = None;
        r_ctx = Des.Engine.current_context t.engine;
        r_t0 = now t;
      }
    in
    Hashtbl.replace t.pending_reads rid read;
    read.r_timer <-
      Some
        (Des.Engine.timer ~label:"samya.read.timeout" t.engine
           ~delay_ms:read_timeout_ms (fun () ->
             if t.deps.alive () then finish_read t rid));
    t.deps.broadcast_read_query ~entity ~rid
  end

let serve_read t ?(deadline_ms = infinity) ~entity ~own reply =
  if deadline_ms < now t then begin
    (* Dead on arrival: same cheap refusal as the write path. *)
    t.s_shed_deadline <- t.s_shed_deadline + 1;
    obs_incr t "samya.shed.deadline";
    flight_shed t ~entity "deadline";
    reply ~at_ms:(now t) Types.Rejected_deadline
  end
  else
  match Obs.Sink.tap t.obs with
  | None -> serve_read_inner t ~entity ~own reply
  | Some sink -> with_root_stamp t sink (fun () -> serve_read_inner t ~entity ~own reply)

let on_read_reply t ~rid ~tokens_left =
  match Hashtbl.find_opt t.pending_reads rid with
  | None -> ()
  | Some read ->
      read.acc <- read.acc + tokens_left;
      read.replies <- read.replies + 1;
      if read.replies >= t.n_sites - 1 then finish_read t rid

(* A crash drops in-flight reads; their timers fire into the dead rid and
   no-op. *)
let on_crash t = Hashtbl.reset t.pending_reads
