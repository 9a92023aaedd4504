(* Declarative incident watchdog over flight-recorder dumps.

   [detect] is a pure fold over the (already deterministically sorted)
   event list — no clocks, no mutation of the recorder — so incident
   lists inherit the recorder's byte-identity across [--engine-jobs].
   Rules either fire directly on one event kind (SLO breach, invariant
   violation, breaker trip) or on a sliding-window count (mechanism
   flapping, shed bursts). A per-(rule, entity) cooldown keeps one
   sustained condition from flooding the incident list. *)

type rule =
  | Slo_breach
  | Invariant_violation
  | Breaker_trip
  | Mechanism_flap of { switches : int; within_ms : float }
  | Shed_burst of { sheds : int; within_ms : float }

let rule_name = function
  | Slo_breach -> "slo-breach"
  | Invariant_violation -> "invariant-violation"
  | Breaker_trip -> "breaker-trip"
  | Mechanism_flap _ -> "mechanism-flap"
  | Shed_burst _ -> "shed-burst"

type spec = { rules : rule list; cooldown_ms : float }

let default_spec =
  {
    rules =
      [
        Slo_breach;
        Invariant_violation;
        Breaker_trip;
        Mechanism_flap { switches = 4; within_ms = 10_000.0 };
        Shed_burst { sheds = 500; within_ms = 1_000.0 };
      ];
    cooldown_ms = 5_000.0;
  }

type incident = {
  i_rule : string;
  i_ts : float;
  i_site : int;
  i_entity : string;
  i_reason : string;
}

(* Sliding-window counter keyed by entity: push a timestamp, expire
   everything older than [within_ms], report the window size. Events
   arrive sorted by ts, so the stamps a key holds are ascending and the
   expired ones are always at the front of its queue. *)
let slide tbl key ~ts ~within_ms =
  let window =
    match Hashtbl.find_opt tbl key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add tbl key q;
        q
  in
  while (not (Queue.is_empty window)) && ts -. Queue.peek window > within_ms do
    ignore (Queue.pop window)
  done;
  Queue.push ts window;
  window

let detect ?(spec = default_spec) events =
  let cooldown = Hashtbl.create 16 in
  let flaps = Hashtbl.create 16 in
  let bursts = Hashtbl.create 4 in
  let incidents = ref [] in
  let cooled_fire ~rule ~key (ev : Flight_recorder.event) reason =
    let ck = (rule_name rule, key) in
    let ok =
      match Hashtbl.find_opt cooldown ck with
      | Some last -> ev.ts -. last > spec.cooldown_ms
      | None -> true
    in
    if ok then begin
      Hashtbl.replace cooldown ck ev.ts;
      incidents :=
        {
          i_rule = rule_name rule;
          i_ts = ev.ts;
          i_site = ev.site;
          i_entity = ev.entity;
          i_reason = reason;
        }
        :: !incidents
    end
  in
  List.iter
    (fun (ev : Flight_recorder.event) ->
      List.iter
        (fun rule ->
          match (rule, ev.kind) with
          | Slo_breach, Flight_recorder.Slo_breach ->
              cooled_fire ~rule ~key:ev.entity ev ev.detail
          | Invariant_violation, Flight_recorder.Invariant ->
              cooled_fire ~rule ~key:ev.entity ev ev.detail
          | Breaker_trip, Flight_recorder.Breaker ->
              cooled_fire ~rule ~key:ev.entity ev ev.detail
          | Mechanism_flap { switches; within_ms }, Flight_recorder.Mech ->
              let window = slide flaps ev.entity ~ts:ev.ts ~within_ms in
              let n = Queue.length window in
              if n >= switches then begin
                Queue.clear window;
                cooled_fire ~rule ~key:ev.entity ev
                  (Printf.sprintf "%d mechanism switches within %.0f ms (last: %s)"
                     n within_ms ev.detail)
              end
          | Shed_burst { sheds; within_ms }, Flight_recorder.Shed ->
              let window = slide bursts "" ~ts:ev.ts ~within_ms in
              let n = Queue.length window in
              if n >= sheds then begin
                Queue.clear window;
                cooled_fire ~rule ~key:"" ev
                  (Printf.sprintf "%d requests shed within %.0f ms (last: %s)"
                     n within_ms ev.detail)
              end
          | _ -> ())
        spec.rules)
    events;
  List.rev !incidents

(* Black-box bundle: the incident, the recorder events leading up to it,
   and the hot keys of the window it landed in — self-contained enough
   to read without re-running the workload. *)
type bundle = {
  b_incident : incident;
  b_events : Flight_recorder.event list;
  b_hot : (string * int) list;
  b_hot_window : float option; (* window start, ms *)
}

let bundle ?(context = 8) ?hot events incident =
  let before =
    List.filter
      (fun (ev : Flight_recorder.event) -> ev.Flight_recorder.ts <= incident.i_ts)
      events
  in
  let n = List.length before in
  let b_events = List.filteri (fun i _ -> i >= n - context) before in
  let b_hot, b_hot_window =
    match hot with
    | None -> ([], None)
    | Some w -> (
        (* An SLO breach is stamped at its window's *end*, which is the
           half-open start of the next window — nudge the lookup back so
           the bundle reports the window that actually breached. *)
        match Heavy_hitters.Windowed.at w ~ts:(incident.i_ts -. 1e-6) with
        | Some (start, sk) -> (Heavy_hitters.top ~n:8 sk, Some start)
        | None ->
            (Heavy_hitters.top ~n:8 (Heavy_hitters.Windowed.cumulative w), None))
  in
  { b_incident = incident; b_events; b_hot; b_hot_window }

let incident_line i =
  let where = if i.i_site >= 0 then Printf.sprintf "site %d" i.i_site else "global" in
  let entity = if i.i_entity = "" then "" else Printf.sprintf " [%s]" i.i_entity in
  Printf.sprintf "t=%9.1fms  %-19s %s%s  %s" i.i_ts i.i_rule where entity i.i_reason

(* (rule, count) pairs in first-seen order — compact figure summaries. *)
let count_by_rule incidents =
  let order = ref [] in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun i ->
      match Hashtbl.find_opt counts i.i_rule with
      | Some r -> incr r
      | None ->
          order := i.i_rule :: !order;
          Hashtbl.add counts i.i_rule (ref 1))
    incidents;
  List.rev_map (fun rule -> (rule, !(Hashtbl.find counts rule))) !order
