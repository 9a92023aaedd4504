(** The run's typed trace log: timeline spans and causal request lineage
    in one per-lane event stream.

    Span events render the Chrome/Perfetto timeline ({!Export.trace_json});
    causal events keep the lineage of each request — which site accepted
    it, when it sat in an entity queue, which protocol phases and WAN hops
    ran on its behalf, and when the client saw the outcome — which
    {!Critical_path} walks to attribute end-to-end latency. Both views
    filter the same {!events} list.

    Writes go to the executing lane's buffer ({!Lane_log}), so lanes that
    drain on different domains never share a field, and {!events} is the
    same at any worker count. Timestamps are virtual milliseconds. [tid]
    is a free-form timeline lane: sites use their index, driver clients
    [1000 + client]. Traces and edges are plain [int]s issued by the
    simulation ([Des.Engine.fresh_id]), compared only for equality. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      dur : float;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Thread_name of { tid : int; name : string }
  | Flow_start of { name : string; cat : string; tid : int; ts : float; id : int }
      (** opening half of a timeline arrow ([ph = "s"]); arrows with the
          same [id], [name] and [cat] bind across lanes in Perfetto *)
  | Flow_finish of { name : string; cat : string; tid : int; ts : float; id : int }
      (** closing half ([ph = "f"]) *)
  | Submitted of {
      trace : int;
      client : int;
      kind : string;
      entity : string;
      ts : float;
    }
      (** causal root stamped by the workload driver; [kind] is the verb
          and [entity] the aggregate object it targets ([""] when the
          driven system serves a single implicit entity) *)
  | Accepted of { trace : int; site : int; ts : float }
      (** the request reached its serving site (client WAN leg done) *)
  | Enqueued of { trace : int; site : int; label : string; ts : float }
      (** parked in a queue named [label] (e.g. ["redistribution"]) *)
  | Dequeued of { trace : int; site : int; ts : float }
  | Wait of { trace : int; site : int; label : string; t0 : float; t1 : float }
      (** a named wait window recorded at its end (e.g. ["cpu"], ["read"]) *)
  | Service of { trace : int; site : int; t0 : float; t1 : float }
      (** local processing on the site CPU *)
  | Phase of { trace : int; site : int; name : string; t0 : float; t1 : float }
      (** a protocol phase run on behalf of the trace *)
  | Hop of { trace : int; edge : int; src : int; dst : int; t0 : float; t1 : float }
      (** one WAN message delivery; [edge] is the causal edge id *)
  | Completed of { trace : int; outcome : string; ts : float }
      (** the client observed the outcome (["granted"] / ["rejected"] /
          ["unavailable"]) *)

val is_span : event -> bool
(** [true] for the timeline events, [false] for the causal ones. *)

type t

val create : Lane_log.clock -> t

val now : t -> float
(** The executing lane's virtual clock. *)

type span
(** In-flight span handle from {!start}, closed by {!finish}. *)

val start : t -> ?cat:string -> ?tid:int -> ?ts:float -> string -> span
(** Open a span at [ts], by default the executing lane's current time. *)

val finish : t -> ?args:(string * string) list -> span -> unit
(** Close [span] now, recording a [Complete] event. Finishing an
    already-finished handle is a no-op. *)

val complete :
  t -> ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  name:string -> ts:float -> dur:float -> unit -> unit
(** Record a [Complete] event with explicit bounds (for spans reconstructed
    after the fact, e.g. a message hop recorded at delivery). *)

val instant :
  t -> ?cat:string -> ?tid:int -> ?args:(string * string) list -> string -> unit
(** Record an [Instant] at the executing lane's current time. *)

val record : t -> event -> unit
(** Append an event to the executing lane's buffer. Events with an
    explicit time (a hop reconstructed at delivery, a flow arrow's send
    end, a causal interval) are written this way. *)

val events : t -> event list
(** Every event, merged in (epoch, lane, sequence) order. *)
