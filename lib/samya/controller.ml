type signals = { contention : float; borrow_fail : float; p99_ms : float }

type t = {
  cfg : Config.Controller.t;
  engine : Des.Engine.t;
  site_id : int;
  obs : Obs.Sink.port;
  lane : int;
  escrow : Mechanism.t;
  borrow : Mechanism.t;
  redistribute : Mechanism.t;
  bdeps : Mechanism.borrow_deps;
  mutable switches : int;
  mutable borrows : int;
  mutable borrow_tokens : int;
}

let create ~(cfg : Config.Controller.t) ~engine ~site_id
    ?(obs = Obs.Sink.port ()) ?(lane = 0) ~bdeps ~redistribute () =
  let t =
    {
      cfg;
      engine;
      site_id;
      obs;
      lane;
      escrow = Mechanism.escrow ();
      borrow = Mechanism.borrow bdeps;
      redistribute;
      bdeps;
      switches = 0;
      borrows = 0;
      borrow_tokens = 0;
    }
  in
  Mechanism.set_borrow_on_finish bdeps (fun ctx outcome ->
      t.borrows <- t.borrows + 1;
      t.borrow_tokens <- t.borrow_tokens + outcome.Mechanism.o_obtained;
      ctx.Entity_state.ctl_borrows <- ctx.Entity_state.ctl_borrows + 1;
      if not outcome.Mechanism.o_satisfied then
        ctx.Entity_state.ctl_borrow_fails <-
          ctx.Entity_state.ctl_borrow_fails + 1;
      (match ctx.Entity_state.ctl_wait with
      | Some sketch -> Obs.Quantile_sketch.add sketch outcome.Mechanism.o_wait_ms
      | None -> ());
      t.borrow.Mechanism.note_cost outcome.Mechanism.o_wait_ms);
  t

let mechanism t (ctx : Entity_state.t) =
  match ctx.Entity_state.ctl_mech with
  | Config.Controller.Escrow -> t.escrow
  | Config.Controller.Borrow -> t.borrow
  | Config.Controller.Redistribute -> t.redistribute

let borrow_deps t = t.bdeps
let switches t = t.switches
let borrows t = t.borrows
let borrow_tokens t = t.borrow_tokens

(* Proactive prediction checks trigger consensus redistributions; under
   the controller they only make sense while that is the entity's
   mechanism (a static borrow arm must not quietly redistribute). *)
let proactive_allowed (ctx : Entity_state.t) =
  ctx.Entity_state.ctl_mech = Config.Controller.Redistribute

(* ------------------------------------------------------------------ *)
(* The escalation state machine                                         *)

(* One tier at a time, with a hysteresis band: escalation needs windowed
   contention at/above [escalate_contention]; de-escalation needs it
   below [escalate_contention * deescalate_margin]. Signals between the
   two thresholds keep the current tier — an oscillating signal cannot
   flap the mechanism. Borrow additionally escalates to consensus when
   its own outcomes degrade (unsatisfied grants or slow conversations):
   that is the "sustained pressure" condition where peers have nothing
   spare and only a global re-division helps. *)
let target ~(cfg : Config.Controller.t) ~current (s : signals) =
  let esc = cfg.Config.Controller.escalate_contention in
  let low = esc *. cfg.Config.Controller.deescalate_margin in
  match current with
  | Config.Controller.Escrow ->
      if s.contention >= esc then Config.Controller.Borrow
      else Config.Controller.Escrow
  | Config.Controller.Borrow ->
      if
        s.contention >= esc
        && (s.borrow_fail >= cfg.Config.Controller.borrow_fail_escalate
           || s.p99_ms > cfg.Config.Controller.p99_target_ms)
      then Config.Controller.Redistribute
      else if s.contention < low then Config.Controller.Escrow
      else Config.Controller.Borrow
  | Config.Controller.Redistribute ->
      if s.contention < low then Config.Controller.Borrow
      else Config.Controller.Redistribute

let signals_of (ctx : Entity_state.t) =
  let served = ctx.Entity_state.ctl_served
  and short = ctx.Entity_state.ctl_shortfall in
  let total = served + short in
  let contention =
    if total = 0 then 0.0 else float_of_int short /. float_of_int total
  in
  let borrow_fail =
    if ctx.Entity_state.ctl_borrows = 0 then 0.0
    else
      float_of_int ctx.Entity_state.ctl_borrow_fails
      /. float_of_int ctx.Entity_state.ctl_borrows
  in
  let p99_ms =
    match ctx.Entity_state.ctl_wait with
    | Some sketch when Obs.Quantile_sketch.count sketch > 0 ->
        Obs.Quantile_sketch.quantile sketch 0.99
    | Some _ | None -> 0.0
  in
  { contention; borrow_fail; p99_ms }

let reset_window (ctx : Entity_state.t) ~now =
  ctx.Entity_state.ctl_win_start <- now;
  ctx.Entity_state.ctl_served <- 0;
  ctx.Entity_state.ctl_shortfall <- 0;
  ctx.Entity_state.ctl_borrows <- 0;
  ctx.Entity_state.ctl_borrow_fails <- 0;
  Option.iter Obs.Quantile_sketch.clear ctx.Entity_state.ctl_wait

let switch t (ctx : Entity_state.t) ~now next =
  let prev = ctx.Entity_state.ctl_mech in
  ctx.Entity_state.ctl_mech <- next;
  ctx.Entity_state.ctl_since_ms <- now;
  ctx.Entity_state.ctl_cooldown_until <-
    now +. t.cfg.Config.Controller.cooldown_ms;
  ctx.Entity_state.ctl_switches <- ctx.Entity_state.ctl_switches + 1;
  t.switches <- t.switches + 1;
  (match Obs.Sink.flight t.obs with
  | None -> ()
  | Some a ->
      Obs.Flight_recorder.record a.Obs.Flight_recorder.recorder ~lane:t.lane
        ~ts:now ~kind:Obs.Flight_recorder.Mech ~site:t.site_id
        ~entity:(Entity_state.entity ctx)
        (Mechanism.kind_name prev ^ ">" ^ Mechanism.kind_name next));
  match Obs.Sink.tap t.obs with
  | None -> ()
  | Some sink ->
      Obs.Metrics.incr
        (Obs.Metrics.counter sink.Obs.Sink.metrics
           ("samya.controller.switch." ^ Mechanism.kind_name next));
      (* A zero-width phase marks the switch instant on whatever request
         lineage drove the deciding window. *)
      let tctx = Des.Engine.current_context t.engine in
      if not (Des.Trace_context.is_none tctx) then
        Obs.Trace_log.record sink.Obs.Sink.log
          (Phase
             {
               trace = tctx.Des.Trace_context.trace;
               site = t.site_id;
               name =
                 "mech.switch:" ^ Mechanism.kind_name prev ^ ">"
                 ^ Mechanism.kind_name next;
               t0 = now;
               t1 = now;
             })

(* Window boundary: evaluate the state machine under the hysteresis
   guards (dwell in the current tier, cooldown since the last switch),
   then start a fresh window. Static pins never switch; per-entity pins
   (the org escalation topology) override the site-wide policy, and a
   disabled controller is the Static Redistribute pin. *)
let evaluate t (ctx : Entity_state.t) ~now =
  let policy =
    match ctx.Entity_state.ctl_pinned with
    | Some p -> p
    | None -> Config.Controller.effective_policy t.cfg
  in
  (match policy with
  | Config.Controller.Static _ -> ()
  | Config.Controller.Adaptive ->
      if
        now -. ctx.Entity_state.ctl_since_ms
        >= t.cfg.Config.Controller.dwell_ms
        && now >= ctx.Entity_state.ctl_cooldown_until
      then begin
        let next = target ~cfg:t.cfg ~current:ctx.Entity_state.ctl_mech
            (signals_of ctx)
        in
        if next <> ctx.Entity_state.ctl_mech then switch t ctx ~now next
      end);
  reset_window ctx ~now

let tick t (ctx : Entity_state.t) =
  let now = Des.Engine.now t.engine in
  if now -. ctx.Entity_state.ctl_win_start >= t.cfg.Config.Controller.window_ms
  then evaluate t ctx ~now

(* ------------------------------------------------------------------ *)
(* Signal feeds                                                         *)

let note_served t (ctx : Entity_state.t) =
  ctx.Entity_state.ctl_served <- ctx.Entity_state.ctl_served + 1;
  tick t ctx

let note_shortfall t (ctx : Entity_state.t) =
  ctx.Entity_state.ctl_shortfall <- ctx.Entity_state.ctl_shortfall + 1;
  tick t ctx

(* Redistribution outcomes reach the controller through the site's
   [register_outcome] hook; the engagement latency approximates as time
   since the reactive trigger stamped [last_redistribution_ms]. *)
let note_redistribution_outcome t (ctx : Entity_state.t) ~aborted:_ =
  let now = Des.Engine.now t.engine in
  let wait = now -. ctx.Entity_state.last_redistribution_ms in
  if wait >= 0.0 && wait < infinity then begin
    (match ctx.Entity_state.ctl_wait with
    | Some sketch -> Obs.Quantile_sketch.add sketch wait
    | None -> ());
    t.redistribute.Mechanism.note_cost wait
  end;
  tick t ctx

(* ------------------------------------------------------------------ *)
(* Topology pins (the org escalation tiers)                             *)

let pin t (ctx : Entity_state.t) policy =
  ctx.Entity_state.ctl_pinned <- Some policy;
  (match policy with
  | Config.Controller.Static m -> ctx.Entity_state.ctl_mech <- m
  | Config.Controller.Adaptive -> ());
  ignore t

let pinned (ctx : Entity_state.t) = ctx.Entity_state.ctl_pinned
