(* Latency attribution by prioritised interval sweep.

   Each causal event contributes a time interval tagged with a component
   name and a priority (smaller wins). Sweeping the boundaries of the
   request's [submitted, completed] window left to right, every instant is
   charged to the highest-priority component covering it — so a protocol
   phase running while the request sits in the redistribution queue counts
   as protocol time, not queue time, and nothing is double-counted.
   Uncovered time at the edges of the window is the client WAN legs (the
   driver-to-site gap no site-local event can cover); uncovered time in
   the interior is reported honestly as "other". *)

type component = { comp : string; ms : float }

type breakdown = {
  trace : int;
  client : int;
  kind : string;
  entity : string;
  outcome : string;
  submitted_ms : float;
  wall_ms : float;
  components : component list;
  attributed_ms : float;
}

let attributed_fraction b =
  if b.wall_ms <= 0.0 then 1.0 else b.attributed_ms /. b.wall_ms

(* Priorities: local service is never pre-empted by an overlapping window;
   named waits beat protocol phases (the cpu backlog window is exact);
   phases beat the queue window they run inside; queueing beats the hops
   the instance is exchanging meanwhile. *)
let prio_service = 1
let prio_wait = 2
let prio_phase = 3
let prio_queue = 4
let prio_hop = 5

let wait_component = function
  | "cpu" -> "queue.cpu"
  | "read" -> "wan.read_fanout"
  | label -> "wait." ^ label

type acc = {
  mutable client : int;
  mutable kind : string;
  mutable entity : string;
  mutable t0 : float;
  mutable has_submit : bool;
  mutable outcome : string option;
  mutable t1 : float;
  (* (priority, component, t0, t1), newest first *)
  mutable intervals : (int * string * float * float) list;
  (* enqueues not yet matched by a dequeue: (site, component, ts) *)
  mutable open_queues : (int * string * float) list;
}

let fresh_acc () =
  {
    client = -1;
    kind = "";
    entity = "";
    t0 = 0.0;
    has_submit = false;
    outcome = None;
    t1 = 0.0;
    intervals = [];
    open_queues = [];
  }

let acc_for table trace =
  match Hashtbl.find_opt table trace with
  | Some a -> a
  | None ->
      let a = fresh_acc () in
      Hashtbl.add table trace a;
      a

let push a prio comp t0 t1 = a.intervals <- (prio, comp, t0, t1) :: a.intervals

let collect events =
  let table : (int, acc) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (event : Trace_log.event) ->
      match event with
      | Trace_log.Submitted { trace; client; kind; entity; ts } ->
          let a = acc_for table trace in
          a.client <- client;
          a.kind <- kind;
          a.entity <- entity;
          a.t0 <- ts;
          a.has_submit <- true
      | Trace_log.Enqueued { trace; site; label; ts } ->
          let a = acc_for table trace in
          a.open_queues <- (site, "queue." ^ label, ts) :: a.open_queues
      | Trace_log.Dequeued { trace; site; ts } -> (
          let a = acc_for table trace in
          (* Entries for one site nest LIFO at worst; the newest open
             enqueue on that site is the one this dequeue closes. *)
          let rec split acc = function
            | [] -> None
            | ((s, comp, t0) as hd) :: rest ->
                if s = site then Some (comp, t0, List.rev_append acc rest)
                else split (hd :: acc) rest
          in
          match split [] a.open_queues with
          | Some (comp, t0, rest) ->
              a.open_queues <- rest;
              push a prio_queue comp t0 ts
          | None -> ())
      | Trace_log.Wait { trace; site = _; label; t0; t1 } ->
          push (acc_for table trace) prio_wait (wait_component label) t0 t1
      | Trace_log.Service { trace; site = _; t0; t1 } ->
          push (acc_for table trace) prio_service "local.service" t0 t1
      | Trace_log.Phase { trace; site = _; name; t0; t1 } ->
          push (acc_for table trace) prio_phase ("protocol." ^ name) t0 t1
      | Trace_log.Hop { trace; edge = _; src = _; dst = _; t0; t1 } ->
          push (acc_for table trace) prio_hop "wan.replication" t0 t1
      | Trace_log.Completed { trace; outcome; ts } ->
          let a = acc_for table trace in
          a.outcome <- Some outcome;
          a.t1 <- ts
      | _ -> () (* [Accepted] and the timeline events carry no interval *))
    events;
  table

(* Charge [t0, t1] segment by segment to the best covering interval. *)
let sweep ~t0 ~t1 intervals =
  let clipped =
    List.filter_map
      (fun (prio, comp, a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (prio, comp, a, b) else None)
      intervals
  in
  (* Boundary events: (time, is_end, prio, comp). Ends sort before starts
     at equal times so zero-width actives cannot survive a boundary. *)
  let bounds =
    List.concat_map
      (fun (prio, comp, a, b) -> [ (a, false, prio, comp); (b, true, prio, comp) ])
      clipped
    |> List.sort (fun (ta, ea, pa, ca) (tb, eb, pb, cb) ->
           let c = Float.compare ta tb in
           if c <> 0 then c
           else
             let c = Bool.compare eb ea in
             if c <> 0 then c
             else
               let c = Int.compare pa pb in
               if c <> 0 then c else String.compare ca cb)
  in
  let active : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  let best () =
    Hashtbl.fold
      (fun key count acc ->
        if count <= 0 then acc
        else
          match acc with
          | None -> Some key
          | Some k -> if compare key k < 0 then Some key else acc)
      active None
  in
  (* Ordered (length, cover) segments across [t0, t1]. *)
  let segments = ref [] in
  let cursor = ref t0 in
  let charge upto =
    if upto > !cursor then begin
      let cover = Option.map snd (best ()) in
      segments := (upto -. !cursor, cover) :: !segments;
      cursor := upto
    end
  in
  List.iter
    (fun (time, is_end, prio, comp) ->
      charge (Float.min time t1);
      let key = (prio, comp) in
      let count = Option.value (Hashtbl.find_opt active key) ~default:0 in
      Hashtbl.replace active key (count + (if is_end then -1 else 1)))
    bounds;
  charge t1;
  List.rev !segments

let analyze events =
  let table = collect events in
  let traces =
    Hashtbl.fold (fun trace a acc -> (trace, a) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.filter_map
    (fun (trace, a) ->
      match a.outcome with
      | None -> None
      | Some _ when not a.has_submit -> None
      | Some outcome ->
          let t0 = a.t0 and t1 = a.t1 in
          let wall = t1 -. t0 in
          (* A still-open queue window of a completed request (a rejection
             decided while parked) extends to completion. *)
          List.iter
            (fun (_, comp, qt0) -> push a prio_queue comp qt0 t1)
            a.open_queues;
          a.open_queues <- [];
          let segments = sweep ~t0 ~t1 a.intervals in
          (* Leading and trailing uncovered time is the client WAN legs;
             interior uncovered time stays unexplained. *)
          let n = List.length segments in
          let last_covered = ref (-1) and first_covered = ref n in
          List.iteri
            (fun i (_, cover) ->
              if cover <> None then begin
                if !first_covered = n then first_covered := i;
                last_covered := i
              end)
            segments;
          let totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
          let add name ms =
            let v = Option.value (Hashtbl.find_opt totals name) ~default:0.0 in
            Hashtbl.replace totals name (v +. ms)
          in
          List.iteri
            (fun i (len, cover) ->
              match cover with
              | Some comp -> add comp len
              | None ->
                  if i < !first_covered || i > !last_covered then add "wan.client" len
                  else add "other" len)
            segments;
          let components =
            Hashtbl.fold (fun comp ms acc -> { comp; ms } :: acc) totals []
            |> List.filter (fun c -> c.ms > 0.0)
            |> List.sort (fun a b ->
                   let c = Float.compare b.ms a.ms in
                   if c <> 0 then c else String.compare a.comp b.comp)
          in
          let attributed =
            List.fold_left
              (fun acc c -> if c.comp = "other" then acc else acc +. c.ms)
              0.0 components
          in
          Some
            {
              trace;
              client = a.client;
              kind = a.kind;
              entity = a.entity;
              outcome;
              submitted_ms = t0;
              wall_ms = wall;
              components;
              attributed_ms = attributed;
            })
    traces

let submitted_count events =
  List.fold_left
    (fun acc e -> match e with Trace_log.Submitted _ -> acc + 1 | _ -> acc)
    0 events

let slowest n breakdowns =
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = Float.compare b.wall_ms a.wall_ms in
        if c <> 0 then c else Int.compare a.trace b.trace)
      breakdowns
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take n sorted
