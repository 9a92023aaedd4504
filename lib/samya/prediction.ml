type t = {
  config : Config.t;
  forecaster : Ml.Forecaster.t option;
  mutable proactive_triggers : int;
}

let create ~config ?forecaster () = { config; forecaster; proactive_triggers = 0 }

let proactive_triggers t = t.proactive_triggers

(* How many epochs of predicted demand a redistribution should leave the
   site holding. Triggering follows Equation 4 (predicted next-epoch
   demand exceeds the local pool), but requesting only a single epoch's
   worth would re-trigger every epoch; a multi-epoch buffer amortises one
   synchronization over many epochs of local serving, which is the point
   of the design. *)
let buffer_epochs = 12

(* Low/high watermark ratio: a redistribution triggers when the local
   pool drops below the predicted need but requests [headroom x need], so
   consecutive instances are spaced by the time it takes to erode the
   extra headroom rather than one epoch. *)
let request_headroom = 3.0

(* Minimum spacing of background prediction checks after served
   acquires. *)
let proactive_check_ms = 1_000.0

(* The token pool a site wants to hold: [buffer_epochs] worth of the
   predicted per-epoch net consumption (the forecaster's job), plus
   working capital covering the peak concurrent draw observed in recent
   epochs (intra-epoch bursts that releases later replenish). *)
let predicted_need t (ctx : Entity_state.t) =
  let net_history = Demand_tracker.history ctx.tracker in
  let net =
    match t.forecaster with
    | Some f -> f.Ml.Forecaster.predict net_history
    | None ->
        let n = Array.length net_history in
        if n = 0 then Demand_tracker.current_epoch_demand ctx.tracker
        else net_history.(n - 1)
  in
  let peaks = Demand_tracker.peak_history ctx.tracker in
  let capital =
    let n = Array.length peaks in
    if n = 0 then Demand_tracker.current_epoch_peak ctx.tracker
    else begin
      let window = min n 6 in
      Stats.Series.mean (Array.sub peaks (n - window) window)
    end
  in
  let target =
    (Float.max 0.0 net *. float_of_int buffer_epochs)
    +. Float.max 0.0 capital
  in
  int_of_float (Float.ceil target)

(* High watermark: what a triggered redistribution asks for, shrunk while
   previous instances could not satisfy this site — Algorithm 2's
   rejection is all-or-nothing, so a site facing a shrinking pool must
   lower its ask to keep draining what remains. *)
let requested_pool (ctx : Entity_state.t) need =
  int_of_float
    (Float.ceil
       (request_headroom *. ctx.request_scale *. float_of_int need))

(* Algorithm 1 lines 9-11, run by cohorts before answering an election. *)
let refresh_wanted t (ctx : Entity_state.t) =
  if t.config.Config.prediction_enabled then begin
    let need = predicted_need t ctx in
    if need > ctx.core.tokens_left then
      ctx.core.tokens_wanted <-
        max ctx.core.tokens_wanted (requested_pool ctx need - ctx.core.tokens_left)
  end

(* Reactive redistribution's ask (Equation 5); with prediction enabled the
   site folds its forecast buffer into the request so one synchronization
   covers the demand that is about to follow. *)
let reactive_wanted t (ctx : Entity_state.t) ~amount =
  if t.config.Config.prediction_enabled then
    max amount (requested_pool ctx (predicted_need t ctx) - ctx.core.tokens_left)
  else amount

(* Proactive redistribution (Equation 4): after serving an acquire,
   predict the next epoch in the background and trigger when the forecast
   exceeds the local pool. *)
let proactive_check t ~now ~cooldown_ok ~trigger (ctx : Entity_state.t) =
  if
    t.config.Config.prediction_enabled
    && now -. ctx.last_proactive_check_ms >= proactive_check_ms
  then begin
    ctx.last_proactive_check_ms <- now;
    let need = predicted_need t ctx in
    if
      need > ctx.core.tokens_left
      && (not (Entity_state.participating ctx))
      && cooldown_ok ~now ctx
    then begin
      let wanted = requested_pool ctx need - ctx.core.tokens_left in
      if wanted > 0 then begin
        t.proactive_triggers <- t.proactive_triggers + 1;
        ctx.core.tokens_wanted <- wanted;
        ctx.last_redistribution_ms <- now;
        trigger ctx
      end
    end
  end
