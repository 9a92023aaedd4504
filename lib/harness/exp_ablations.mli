(** Experiments `fig3e` / `fig3f`: the mechanism ablations (§5.5, §5.6).

    Fig. 3e asks whether redistribution is worth its cost: Samya (both
    variants) against a no-constraint upper bound (every request succeeds
    locally) and a no-redistribution lower bound (exhausted sites simply
    reject). The paper's shape: Samya sits within ~4% of the no-constraint
    optimum and ~14% above no-redistribution.

    Fig. 3f measures the value of prediction: both Avantan variants with
    the Prediction Module on and off (reactive-only). The paper reports
    ~1.4x higher throughput with predictions. Client requests time out
    after 0.6 s, as reactive-only operation loses its commits to stalls, not
    to rejects alone. *)

val samya_builders :
  Lab.context -> (string * Samya.Config.t) list -> (string * (unit -> Systems.facade)) list
(** One labelled Samya builder per config (the facade named by the
    label), sharing the context's fitted forecaster. *)

val constraint_ablation : Scenario.t
(** [fig3e]: four Samya arms on one stream. *)

val prediction_ablation : Scenario.t
(** [fig3f]: four Samya arms with a 0.6 s client timeout. *)
