(** Declarative incident watchdog over {!Flight_recorder} dumps.

    {!detect} is a pure fold over the sorted event list, so incident
    lists are byte-identical wherever the dump is. Direct rules fire on
    one event kind; windowed rules (flap, burst) fire on a sliding-count
    threshold. A per-(rule, entity) cooldown bounds incident volume
    under sustained conditions. *)

type rule =
  | Slo_breach
  | Invariant_violation
  | Breaker_trip
  | Mechanism_flap of { switches : int; within_ms : float }
  | Shed_burst of { sheds : int; within_ms : float }

val rule_name : rule -> string

type spec = { rules : rule list; cooldown_ms : float }

val default_spec : spec
(** All five rules; flap = 4 switches / 10 s, burst = 500 sheds / 1 s,
    cooldown 5 s. *)

type incident = {
  i_rule : string;
  i_ts : float;
  i_site : int;
  i_entity : string;
  i_reason : string;
}

val detect : ?spec:spec -> Flight_recorder.event list -> incident list
(** Incidents in event order. [events] must be ascending in [ts], as
    {!Flight_recorder.events} returns them: the windowed rules expire
    stamps from the front of a per-key queue, in time linear in the
    dump. *)

type bundle = {
  b_incident : incident;
  b_events : Flight_recorder.event list;  (** last [context] events at trigger *)
  b_hot : (string * int) list;  (** top keys of the trigger's window *)
  b_hot_window : float option;  (** that window's start (ms), if windowed *)
}

val bundle :
  ?context:int ->
  ?hot:Heavy_hitters.Windowed.w ->
  Flight_recorder.event list ->
  incident ->
  bundle
(** Materialise the black box for one incident (default 8 context
    events). Falls back to the cumulative hot-key sketch when no window
    covers the trigger time. *)

val incident_line : incident -> string
val count_by_rule : incident list -> (string * int) list
