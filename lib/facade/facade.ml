type stats = {
  redistributions : int;
  borrows : int;
  borrow_tokens : int;
  mechanism_switches : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
}

type t = {
  name : string;
  now : unit -> float;
  sched_region : Geonet.Region.t -> Des.Engine.t;
  schedule_global : time_ms:float -> (unit -> unit) -> unit;
  run_until : float -> unit;
  entity : Samya.Types.entity;
  arrival_ms : region:Geonet.Region.t -> issue_ms:float -> float;
  arrive : region:Geonet.Region.t -> issue_ms:float -> unit;
  submit :
    region:Geonet.Region.t ->
    Samya.Types.request ->
    reply:(Samya.Types.response -> unit) ->
    unit;
  crash_site : int -> unit;
  recover_site : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
  stats : unit -> stats;
  subscribe : unit -> Obs.Sink.t;
  arm : Obs.Flight_recorder.attachment -> unit;
      (* always-on incident capture; a no-op on baselines, which have no
         breaker/controller/shed machinery to record *)
  invariant : maximum:int -> (unit, string) result;
}

(* ------------------------------------------------------------------ *)
(* Observability wiring parts. Instruments are resolved once at
   subscription, so the per-event cost while tracing is a cell update
   (metrics) or one append to the executing lane's trace buffer.        *)

let engine_tracer (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics in
  let events = Obs.Metrics.counter m "des.events" in
  let depth = Obs.Metrics.gauge m "des.queue.depth" in
  let fired = Obs.Metrics.counter m "des.timer.fired" in
  let cancelled = Obs.Metrics.counter m "des.timer.cancelled" in
  {
    Des.Engine.on_timer_fired =
      (fun ~label ~armed_ms ~now_ms ->
        (* A fired labelled timer is an expired timeout (protocol failure
           detectors cancel on progress): span it armed -> fired. *)
        Obs.Metrics.incr fired;
        Obs.Trace_log.complete sink.Obs.Sink.log ~cat:"timer" ~name:label ~ts:armed_ms
          ~dur:(now_ms -. armed_ms) ());
    on_timer_cancelled =
      (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> Obs.Metrics.incr cancelled);
    after_step =
      (fun ~now_ms:_ ~pending ->
        Obs.Metrics.incr events;
        Obs.Metrics.set depth (float_of_int pending));
  }

let network_tracer ~context (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics in
  let sent = Obs.Metrics.counter m "net.sent" in
  let delivered = Obs.Metrics.counter m "net.delivered" in
  let dropped = Obs.Metrics.counter m "net.dropped" in
  let hop_ms = Obs.Metrics.histogram m "net.hop_ms" in
  {
    Geonet.Network.on_send = (fun ~src:_ ~dst:_ ~now_ms:_ -> Obs.Metrics.incr sent);
    on_deliver =
      (fun ~src ~dst ~sent_at ~now_ms ->
        Obs.Metrics.incr delivered;
        Obs.Metrics.observe hop_ms (now_ms -. sent_at);
        let log = sink.Obs.Sink.log in
        Obs.Trace_log.complete log ~cat:"net" ~tid:dst ~name:"net.hop" ~ts:sent_at
          ~dur:(now_ms -. sent_at)
          ~args:[ ("src", string_of_int src); ("dst", string_of_int dst) ]
          ();
        (* Delivery runs under the message's child context: its [parent]
           field is the edge id minted at send, which keys both the causal
           hop and the Perfetto flow arrow binding the two lanes. *)
        let ctx = context () in
        if not (Des.Trace_context.is_none ctx) then begin
          let id = ctx.Des.Trace_context.parent in
          let trace = ctx.Des.Trace_context.trace in
          Obs.Trace_log.record log (Hop { trace; edge = id; src; dst; t0 = sent_at; t1 = now_ms });
          Obs.Trace_log.record log
            (Flow_start { name = "net.flow"; cat = "net"; tid = src; ts = sent_at; id });
          Obs.Trace_log.record log
            (Flow_finish { name = "net.flow"; cat = "net"; tid = dst; ts = now_ms; id })
        end);
    on_drop =
      (fun ~src ~dst ~sent_at ~now_ms:_ ->
        Obs.Metrics.incr dropped;
        Obs.Trace_log.instant sink.Obs.Sink.log ~cat:"net" ~tid:dst
          ~args:[ ("src", string_of_int src); ("sent_at", Printf.sprintf "%.3f" sent_at) ]
          "net.drop");
  }

let name_site_lanes (sink : Obs.Sink.t) regions =
  Array.iteri
    (fun tid region ->
      let name = Printf.sprintf "site %d (%s)" tid (Geonet.Region.name region) in
      Obs.Trace_log.record sink.Obs.Sink.log (Thread_name { tid; name }))
    regions

(* ------------------------------------------------------------------ *)
(* Avantan span observer: instance spans with role, rounds and outcome,
   reconstructed from the structured protocol events of PR 2.            *)

module Ballot = Consensus.Ballot

let avantan_observer ~context ~sites (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics in
  let sp = sink.Obs.Sink.log in
  let now () = Obs.Trace_log.now sp in
  let elections = Obs.Metrics.counter m "avantan.elections" in
  let joined = Obs.Metrics.counter m "avantan.joined" in
  let decided = Obs.Metrics.counter m "avantan.decided" in
  let aborted = Obs.Metrics.counter m "avantan.aborted" in
  let recoveries = Obs.Metrics.counter m "avantan.recoveries" in
  let rounds_h = Obs.Metrics.histogram m "avantan.rounds" in
  (* Open state is kept per site, keyed by entity: a site's events arrive
     on its own lane, so lanes draining on different domains never share
     a table. One open span per (site, entity): a site participates in at
     most one instance at a time, and Decided/Instance_aborted always
     closes it. *)
  let open_spans : (string, Obs.Trace_log.span) Hashtbl.t array =
    Array.init sites (fun _ -> Hashtbl.create 16)
  in
  (* Causal phase windows: each (site, entity) is in at most one protocol
     phase — election, accept, recovery — and the window is charged to the
     trace that was ambient when the phase opened (the request whose
     arrival triggered the instance). *)
  let open_phases : (string, string * float * int) Hashtbl.t array =
    Array.init sites (fun _ -> Hashtbl.create 16)
  in
  let causal_trace () =
    let ctx = context () in
    if Des.Trace_context.is_none ctx then -1 else ctx.Des.Trace_context.trace
  in
  let close_phase ~site ~entity =
    match Hashtbl.find_opt open_phases.(site) entity with
    | None -> ()
    | Some (name, t0, trace) ->
        Hashtbl.remove open_phases.(site) entity;
        if trace >= 0 then
          Obs.Trace_log.record sp (Phase { trace; site; name; t0; t1 = now () })
  in
  let to_phase ~site ~entity name =
    match Hashtbl.find_opt open_phases.(site) entity with
    | Some (current, _, _) when String.equal current name -> ()
    | Some _ ->
        close_phase ~site ~entity;
        Hashtbl.replace open_phases.(site) entity (name, now (), causal_trace ())
    | None -> Hashtbl.replace open_phases.(site) entity (name, now (), causal_trace ())
  in
  let ensure_open ~site ~entity =
    if not (Hashtbl.mem open_spans.(site) entity) then
      Hashtbl.replace open_spans.(site) entity
        (Obs.Trace_log.start sp ~cat:"avantan" ~tid:site "avantan.instance")
  in
  let close ~site ~entity args =
    match Hashtbl.find_opt open_spans.(site) entity with
    | Some span ->
        Hashtbl.remove open_spans.(site) entity;
        Obs.Trace_log.finish sp ~args span
    | None ->
        (* Decision applied with no open instance here (e.g. delivered by
           anti-entropy): record it as an instant instead. *)
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site ~args "avantan.apply"
  in
  fun ~site ~entity (event : Samya.Avantan_core.event) ->
    match event with
    | Samya.Avantan_core.Election_started { ballot; round } ->
        Obs.Metrics.incr elections;
        ensure_open ~site ~entity;
        to_phase ~site ~entity "election";
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site
          ~args:
            [ ("ballot", Ballot.to_string ballot); ("round", string_of_int round) ]
          "election.started"
    | Samya.Avantan_core.Election_joined { ballot; leader } ->
        Obs.Metrics.incr joined;
        ensure_open ~site ~entity;
        to_phase ~site ~entity "election";
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site
          ~args:
            [ ("ballot", Ballot.to_string ballot); ("leader", string_of_int leader) ]
          "election.joined"
    | Samya.Avantan_core.Value_constructed { ballot; participants } ->
        to_phase ~site ~entity "accept";
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site
          ~args:
            [
              ("ballot", Ballot.to_string ballot);
              ("participants", string_of_int participants);
            ]
          "value.constructed"
    | Samya.Avantan_core.Value_accepted { ballot; leader } ->
        ensure_open ~site ~entity;
        to_phase ~site ~entity "accept";
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site
          ~args:
            [ ("ballot", Ballot.to_string ballot); ("leader", string_of_int leader) ]
          "value.accepted"
    | Samya.Avantan_core.Recovery_started { ballot } ->
        Obs.Metrics.incr recoveries;
        ensure_open ~site ~entity;
        to_phase ~site ~entity "recovery";
        Obs.Trace_log.instant sp ~cat:"avantan" ~tid:site
          ~args:[ ("ballot", Ballot.to_string ballot) ]
          "recovery.started"
    | Samya.Avantan_core.Decided { origin; participants; led; rounds } ->
        Obs.Metrics.incr decided;
        Obs.Metrics.observe rounds_h (float_of_int rounds);
        close_phase ~site ~entity;
        close ~site ~entity
          [
            ("outcome", "decided");
            ("origin", Ballot.to_string origin);
            ("participants", string_of_int participants);
            ("led", string_of_bool led);
            ("rounds", string_of_int rounds);
          ]
    | Samya.Avantan_core.Instance_aborted { ballot; led; rounds } ->
        Obs.Metrics.incr aborted;
        Obs.Metrics.observe rounds_h (float_of_int rounds);
        close_phase ~site ~entity;
        close ~site ~entity
          [
            ("outcome", "aborted");
            ("ballot", Ballot.to_string ballot);
            ("led", string_of_bool led);
            ("rounds", string_of_int rounds);
          ]

(* ------------------------------------------------------------------ *)
(* The scheduling surface every system shares: a Des.Shard.              *)

(* Writes land on the lane executing them; between windows that is lane
   -1, on barrier time. *)
let clock shard =
  {
    Obs.Lane_log.lanes = Des.Shard.lanes shard;
    lane = Des.Shard.executing_lane;
    epoch = (fun () -> Des.Shard.epoch shard);
    now =
      (fun lane ->
        if lane < 0 then Des.Shard.now shard
        else Des.Engine.now (Des.Shard.engine shard lane));
  }

let of_shard shard ~sched_region ~name ~regions ~entity ~obs ~set_net_tracer ~observe
    ~arrival_ms ~arrive ~submit ~crash_site ~recover_site ~partition ~heal ~stats ~arm
    ~invariant =
  (* The observability wiring reads the ambient trace context of the lane
     executing the write; between windows there is none. *)
  let context () =
    let lane = Des.Shard.executing_lane () in
    if lane < 0 then Des.Trace_context.none
    else Des.Engine.current_context (Des.Shard.engine shard lane)
  in
  {
    name;
    now = (fun () -> Des.Shard.now shard);
    sched_region;
    schedule_global = (fun ~time_ms f -> Des.Shard.schedule_global shard ~time_ms f);
    run_until = (fun until_ms -> Des.Shard.run shard ~until_ms);
    entity;
    arrival_ms;
    arrive;
    submit;
    crash_site;
    recover_site;
    partition;
    heal;
    stats;
    subscribe =
      (fun () ->
        let sink = Obs.Sink.create (clock shard) in
        Obs.Sink.attach obs sink;
        Array.iter
          (fun e -> Des.Engine.set_tracer e (Some (engine_tracer sink)))
          (Des.Shard.engines shard);
        set_net_tracer (Some (network_tracer ~context sink));
        observe ~context sink;
        name_site_lanes sink regions;
        sink);
    arm;
    invariant;
  }

(* ------------------------------------------------------------------ *)
(* The Samya adapter                                                    *)

type samya_hooks = {
  sh_obs : Obs.Sink.port;
  sh_user :
    (site:int -> entity:Samya.Types.entity -> Samya.Avantan_core.event -> unit)
    option;
  mutable sh_observer :
    (site:int -> entity:Samya.Types.entity -> Samya.Avantan_core.event -> unit)
    option;
}

let samya_hooks ?on_protocol_event () =
  { sh_obs = Obs.Sink.port (); sh_user = on_protocol_event; sh_observer = None }

let obs_port hooks = hooks.sh_obs

let protocol_event_hook hooks ~site ~entity event =
  (match hooks.sh_user with Some f -> f ~site ~entity event | None -> ());
  match hooks.sh_observer with Some f -> f ~site ~entity event | None -> ()

let of_samya_cluster ?(name = "Samya") ~hooks ~regions ~entity cluster =
  let network = Samya.Cluster.network cluster in
  let shard = Option.get (Samya.Cluster.shard cluster) in
  of_shard shard ~sched_region:(Samya.Cluster.engine_of_region cluster) ~name ~regions
    ~entity ~obs:hooks.sh_obs ~set_net_tracer:(Geonet.Network.set_tracer network)
    ~observe:(fun ~context sink ->
      hooks.sh_observer <-
        Some (avantan_observer ~context ~sites:(Array.length regions) sink))
    ~arrival_ms:(Samya.Cluster.arrival_ms cluster) ~arrive:(Samya.Cluster.arrive cluster)
    ~submit:(Samya.Cluster.submit cluster)
    ~crash_site:(fun i -> Samya.Cluster.crash_site cluster i)
    ~recover_site:(fun i -> Samya.Cluster.recover_site cluster i)
    ~partition:(fun groups -> Samya.Cluster.partition cluster groups)
    ~heal:(fun () -> Samya.Cluster.heal cluster)
    ~stats:(fun () ->
      (* The paper counts proactive and reactive triggers combined. *)
      let s = Samya.Cluster.aggregate_site_stats cluster in
      {
        redistributions = s.Samya.Site.proactive_triggers + s.Samya.Site.reactive_triggers;
        borrows = s.Samya.Site.borrows;
        borrow_tokens = s.Samya.Site.borrow_tokens;
        mechanism_switches = s.Samya.Site.mechanism_switches;
        messages_sent = Geonet.Network.stats_sent network;
        messages_delivered = Geonet.Network.stats_delivered network;
        messages_dropped = Geonet.Network.stats_dropped network;
      })
    ~arm:(fun attachment ->
      Obs.Flight_recorder.bind attachment.Obs.Flight_recorder.recorder (clock shard);
      Samya.Cluster.arm_flight cluster attachment)
    ~invariant:(fun ~maximum -> Samya.Cluster.check_invariant cluster ~entity ~maximum)
