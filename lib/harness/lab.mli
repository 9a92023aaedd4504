(** Shared experiment context: the synthetic Azure-like trace, the trained
    forecasters, and the per-client workload builder (§5.1–5.2).

    Building the LSTM is the only expensive setup step, so a [context] is
    created once per bench/CLI invocation and shared by all experiments. *)

type context

val create : ?params:Trace.Azure_trace.params -> unit -> context

val params : context -> Trace.Azure_trace.params

val base_trace : context -> Trace.Azure_trace.t
(** The un-shifted reference trace (the "single region" dataset). *)

val table2a : context -> (string * float) list
(** Model name → MAE (tokens) on the 20% test split, rolling one-step. *)

val runtime_forecaster : context -> Ml.Forecaster.t
(** The LSTM deployed in Samya's Prediction Module, trained on the acquire
    (VM-creation) series — the demand a site must cover with tokens.
    Cached. *)

val workload :
  context ->
  client_regions:Geonet.Region.t array ->
  duration_ms:float ->
  ?compress:int ->
  ?read_ratio:float ->
  ?usage_scale:float ->
  ?start_hours:float ->
  seed:int64 ->
  unit ->
  Trace.Workload.request array
(** One request stream per client index (phase-shifted to its region,
    §5.1.2), merged and time-sorted. [compress] is the interval shrink
    factor (default 60: 5 min → 5 s). [usage_scale] (default 1) scales the
    net usage footprint but not the churn volume — the scalability
    experiment adds sites with full request intensity but proportionally
    smaller footprints so the aggregate stays comparable to the limit.
    [start_hours] skips into
    the original trace (quick runs start near the daily peak so contention
    appears within a short window). *)
