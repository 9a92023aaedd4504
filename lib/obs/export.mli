(** Exporters for recorded observability data.

    {!trace_json} writes Chrome [trace_event] JSON Array Format (the object
    form, [{"traceEvents": [...]}]) loadable in [chrome://tracing] and
    Perfetto. Each named trace log becomes one process ([pid] = list index),
    announced with a [process_name] metadata event; virtual milliseconds
    become the format's microseconds. Output is a pure function of the
    recorded events — byte-stable for byte-stable recordings.

    {!metrics_json} writes a flat self-describing document
    ([samya-metrics/1]) with one section per named registry. *)

val trace_json : Buffer.t -> (string * Trace_log.t) list -> unit
(** [trace_json buf [(process, log); ...]] appends the trace document of
    each log's span events to [buf]; causal events are not exported. *)

val metrics_json :
  Buffer.t -> ?meta:(string * string) list -> (string * Metrics.t) list -> unit
(** [metrics_json buf ~meta [(section, registry); ...]]: flat metrics
    document; [meta] becomes a string-valued header object. *)

val slo_json :
  Buffer.t ->
  ?meta:(string * string) list ->
  (string * float * Slo.report_line list) list ->
  unit
(** [slo_json buf ~meta [(system, window_ms, lines); ...]] writes the
    [samya-slo/1] document: one entry per system with its window size, a
    [healthy] verdict and one object per objective line. *)

(** {2 Validation} — a self-contained structural check used by the CLI and
    CI smoke step; no external JSON dependency. *)

val validate_trace : string -> (int, string) result
(** Parse [s] as JSON and check the [trace_event] schema: top-level object
    with a [traceEvents] array; every event an object with string [name]
    and [ph] plus numeric [ts]/[pid]/[tid] (metadata events exempt from
    [ts]); [ph = "X"] events additionally need a numeric [dur], flow
    events ([ph] = "s"/"t"/"f") a numeric [id]. Returns the number of
    events. *)

(** {2 Generic JSON access} — the same parser, exposed for tools that
    read the documents back (the CI perf-regression gate). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result

val member : string -> json -> json option
(** Object field lookup; [None] on non-objects. *)
