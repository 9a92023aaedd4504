(** Critical-path analysis over a {!Trace_log}.

    For every completed request the analyzer walks the causal intervals
    recorded on its behalf — queue residencies, cpu waits, local service,
    protocol phases, WAN hops — and partitions the request's end-to-end
    window among them. Overlaps resolve by priority (service > named waits
    > protocol phases > queueing > hops), so each instant is charged
    exactly once. Uncovered time touching the window edges is the client
    WAN legs ([wan.client]); uncovered interior time is reported as
    [other] rather than silently absorbed — the ≥95% attribution check in
    the test suite keeps that component honest.

    The output is a pure function of the event list: breakdowns come
    sorted by trace id, components by descending share. *)

type component = { comp : string; ms : float }

type breakdown = {
  trace : int;
  client : int;
  kind : string;  (** request verb, from the [Submitted] root *)
  entity : string;  (** target entity from the root; [""] = implicit *)
  outcome : string;
  submitted_ms : float;
  wall_ms : float;
  components : component list;
      (** descending [ms], ties broken by name; ["other"] included *)
  attributed_ms : float;  (** wall minus the ["other"] share *)
}

val analyze : Trace_log.event list -> breakdown list
(** One breakdown per request with both a [Submitted] and a [Completed]
    event, sorted by trace id. *)

val attributed_fraction : breakdown -> float
(** In [[0, 1]]; [1.0] for zero-wall requests. *)

val slowest : int -> breakdown list -> breakdown list
(** Top [n] by wall time (ties by trace id) — the [--slowest] view. *)

val submitted_count : Trace_log.event list -> int
(** Requests with a root, completed or not. *)
