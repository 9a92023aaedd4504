(** The Prediction Module of a site (§4.2): forecaster integration over
    the per-entity demand tracker, the predicted-need target, and the
    proactive redistribution trigger (Equation 4).

    Without a forecaster the module falls back to a persistence forecast
    of the last epoch's net demand; prediction can also be disabled
    entirely via {!Config.t.prediction_enabled} (the Fig. 3f ablation), in
    which case {!refresh_wanted} is a no-op and {!reactive_wanted} passes
    the triggering amount through unchanged. *)

type t

val create : config:Config.t -> ?forecaster:Ml.Forecaster.t -> unit -> t

val proactive_triggers : t -> int
(** Proactive instances this module has triggered (Fig. 3f bookkeeping). *)

val predicted_need : t -> Entity_state.t -> int
(** The token pool the site wants to hold: [buffer_epochs] worth of the
    forecast per-epoch net consumption plus working capital covering the
    recently observed peak concurrent draw. *)

val requested_pool : Entity_state.t -> int -> int
(** The high watermark a triggered redistribution asks for:
    [request_headroom x need], shrunk by the famine [request_scale]. *)

val refresh_wanted : t -> Entity_state.t -> unit
(** Algorithm 1 lines 9–11: re-predict and raise [tokens_wanted] before
    the entity's state is exposed to an election. *)

val reactive_wanted : t -> Entity_state.t -> amount:int -> int
(** What a reactive trigger (Equation 5) should request: at least the
    unservable [amount], folded with the forecast buffer when prediction
    is enabled so one synchronization covers the demand about to follow. *)

val proactive_check :
  t ->
  now:float ->
  cooldown_ok:(now:float -> Entity_state.t -> bool) ->
  trigger:(Entity_state.t -> unit) ->
  Entity_state.t ->
  unit
(** Equation 4, rate-limited by [proactive_check_ms]: when the forecast
    exceeds the local pool, the entity is not already redistributing, and
    [cooldown_ok ~now] holds for it, set [tokens_wanted] and [trigger] it.
    The hooks take the entity, so a caller builds them once, not per
    check. *)
