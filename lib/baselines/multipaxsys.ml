module Types = Samya.Types

type txn = {
  request : Types.request;
  reply : Types.response -> unit;
  ctx : Des.Trace_context.t;
      (* causal context the transaction arrived under, restored around its
         serialized execution so its rounds are attributed to it *)
}

type t = {
  engine : Des.Engine.t;
  network : Rsm.command Consensus.Multipaxos.msg Geonet.Network.t;
  region_array : Geonet.Region.t array;
  replicas : Rsm.command Consensus.Multipaxos.t array;
  states : Rsm.state array;
  leader : int;
  processing_ms : float;
  max_queue : int;
  rng : Des.Rng.t;
  queues : (Types.entity, txn Queue.t) Hashtbl.t;
  in_flight : (Types.entity, unit) Hashtbl.t;
  obs : Obs.Sink.port;
  mutable committed : int;
  mutable dropped : int;
}

let regions =
  [| Geonet.Region.Us_west1; Us_central1; Us_east1; Asia_east2; Europe_west2 |]

let create ?(seed = 42L) ?(regions = regions) ?(leader = 1) ?(processing_ms = 0.15)
    ?(max_queue = 1) () =
  let engine = Des.Engine.create ~seed () in
  let network = Geonet.Network.create engine ~regions () in
  let n = Array.length regions in
  let nodes = List.init n (fun i -> i) in
  let states = Array.init n (fun _ -> Rsm.create_state ()) in
  let replicas =
    Array.init n (fun id ->
        let send dst msg = Geonet.Network.send network ~src:id ~dst msg in
        let on_apply _ command = Rsm.apply states.(id) command in
        Consensus.Multipaxos.create ~engine ~id ~nodes ~leader ~send ~on_apply ())
  in
  Array.iteri
    (fun id replica ->
      Geonet.Network.register network ~node:id (fun envelope ->
          Consensus.Multipaxos.handle replica ~src:envelope.Geonet.Network.src
            envelope.Geonet.Network.payload))
    replicas;
  let t =
    {
      engine;
      network;
      region_array = regions;
      replicas;
      states;
      leader;
      processing_ms;
      max_queue;
      rng = Des.Rng.split (Des.Engine.rng engine);
      queues = Hashtbl.create 4;
      in_flight = Hashtbl.create 4;
      obs = Obs.Sink.port ();
      committed = 0;
      dropped = 0;
    }
  in
  (* Loss/partition recovery: periodically re-push unacknowledged entries
     (multi-Paxos itself has no retransmission). *)
  let rec retry_loop () =
    Des.Engine.schedule engine ~delay_ms:500.0 (fun () ->
        if Geonet.Network.is_up network leader then
          Consensus.Multipaxos.resend_pending replicas.(leader);
        retry_loop ())
  in
  retry_loop ();
  t

let engine t = t.engine

let set_net_tracer t tracer = Geonet.Network.set_tracer t.network tracer

let obs_port t = t.obs

(* Record a causal event for [trace] if a sink is attached ([trace] is -1
   when the transaction arrived untraced). *)
let record_causal t ~trace event = if trace >= 0 then Obs.Sink.record t.obs event

let net_stats t =
  ( Geonet.Network.stats_sent t.network,
    Geonet.Network.stats_delivered t.network,
    Geonet.Network.stats_dropped t.network )

let init_entity t ~entity ~maximum =
  Array.iter (fun state -> Rsm.set_maximum state ~entity maximum) t.states

let queue_for t entity =
  match Hashtbl.find_opt t.queues entity with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues entity q;
      q

(* The leader executes read-write transactions on an entity strictly one at
   a time: an intent round then a commit round, each a majority
   replication — the Spanner-style lock/commit structure that serializes
   conflicting transactions on a hot row. *)
let rec pump t entity =
  if not (Hashtbl.mem t.in_flight entity) then begin
    let q = queue_for t entity in
    if not (Queue.is_empty q) then begin
      let txn = Queue.pop q in
      Hashtbl.replace t.in_flight entity ();
      let delta =
        match txn.request with
        | Types.Acquire { amount; _ } -> amount
        | Types.Release { amount; _ } -> -amount
        | Types.Read _ -> 0
      in
      let leader_replica = t.replicas.(t.leader) in
      let state = t.states.(t.leader) in
      let trace =
        if Des.Trace_context.is_none txn.ctx then -1
        else txn.ctx.Des.Trace_context.trace
      in
      (* Execution runs under the transaction's own context (pump may be
         called from the previous transaction's commit), so the two
         replication rounds and their WAN hops are charged to it. *)
      Des.Engine.with_context t.engine txn.ctx (fun () ->
          let t_intent = Des.Engine.now t.engine in
          record_causal t ~trace
            (Dequeued { trace; site = t.leader; ts = t_intent });
          Consensus.Multipaxos.submit leader_replica
            { Rsm.c_entity = entity; delta = 0; intent = true }
            ~on_commit:(fun () ->
              let t_commit = Des.Engine.now t.engine in
              record_causal t ~trace
                (Phase
                   {
                     trace;
                     site = t.leader;
                     name = "replicate.intent";
                     t0 = t_intent;
                     t1 = t_commit;
                   });
              Consensus.Multipaxos.submit leader_replica
                { Rsm.c_entity = entity; delta; intent = false }
                ~on_commit:(fun () ->
                  (* on_apply ran just before this callback. *)
                  let granted = Rsm.last_outcome state ~entity in
                  if granted then t.committed <- t.committed + 1;
                  Hashtbl.remove t.in_flight entity;
                  let t_done = Des.Engine.now t.engine in
                  record_causal t ~trace
                    (Phase
                       {
                         trace;
                         site = t.leader;
                         name = "replicate.commit";
                         t0 = t_commit;
                         t1 = t_done;
                       });
                  record_causal t ~trace
                    (Service
                       {
                         trace;
                         site = t.leader;
                         t0 = t_done;
                         t1 = t_done +. t.processing_ms;
                       });
                  Des.Engine.schedule t.engine ~delay_ms:t.processing_ms (fun () ->
                      txn.reply (if granted then Types.Granted else Types.Rejected));
                  pump t entity)))
    end
  end

let client_leg_ms t ~region =
  let base =
    (Geonet.Region.client_site_rtt_ms /. 2.0)
    +. Geonet.Region.one_way_ms region t.region_array.(t.leader)
  in
  base +. Des.Rng.float t.rng (0.05 *. base)

(* The replica nearest to a client region acts as its gateway: a network
   partition that separates the gateway's side from the leader makes that
   client's requests fail (Fig. 3d's "stale" minority side). *)
let gateway_for t ~region =
  let best = ref 0 in
  Array.iteri
    (fun i r ->
      if Geonet.Region.one_way_ms region r < Geonet.Region.one_way_ms region t.region_array.(!best)
      then best := i)
    t.region_array;
  !best

let submit t ~region request ~reply =
  match Types.validate request with
  | Error _ -> reply Types.Rejected
  | Ok () ->
      let there = client_leg_ms t ~region in
      let gateway = gateway_for t ~region in
      Des.Engine.schedule t.engine ~delay_ms:there (fun () ->
          if
            (not (Geonet.Network.is_up t.network t.leader))
            || not (Geonet.Network.reachable t.network gateway t.leader)
          then
            Des.Engine.schedule t.engine ~delay_ms:there (fun () -> reply Types.Unavailable)
          else begin
            let reply response =
              let back = client_leg_ms t ~region in
              Des.Engine.schedule t.engine ~delay_ms:back (fun () -> reply response)
            in
            let ctx = Des.Engine.current_context t.engine in
            let trace =
              if Des.Trace_context.is_none ctx then -1
              else ctx.Des.Trace_context.trace
            in
            let now = Des.Engine.now t.engine in
            record_causal t ~trace
              (Accepted { trace; site = gateway; ts = now });
            match request with
            | Types.Read { entity; _ } ->
                (* Reads execute at the leader without replication (§5.8). *)
                let state = t.states.(t.leader) in
                t.committed <- t.committed + 1;
                record_causal t ~trace
                  (Service
                     { trace; site = t.leader; t0 = now; t1 = now +. t.processing_ms });
                Des.Engine.schedule t.engine ~delay_ms:t.processing_ms (fun () ->
                    reply (Types.Read_result { tokens_available = Rsm.available state ~entity }))
            | Types.Acquire { entity; _ } | Types.Release { entity; _ } ->
                (* Admission control: a saturated hot row sheds load rather
                   than queueing without bound (the shed client times out
                   and is not counted as committed). *)
                let q = queue_for t entity in
                if Queue.length q >= t.max_queue then t.dropped <- t.dropped + 1
                else begin
                  record_causal t ~trace
                    (Enqueued
                       { trace; site = t.leader; label = "admission"; ts = now });
                  Queue.push { request; reply; ctx } q;
                  pump t entity
                end
          end)

let crash_site t i = Geonet.Network.crash t.network i
let recover_site t i = Geonet.Network.recover t.network i
let partition t groups = Geonet.Network.set_partition t.network groups
let heal t = Geonet.Network.clear_partition t.network

let total_acquired t ~entity = Rsm.acquired t.states.(t.leader) ~entity

let committed_txns t = t.committed

let dropped_txns t = t.dropped

let check_invariant t ~entity ~maximum =
  let acquired = total_acquired t ~entity in
  if acquired < 0 then Error (Printf.sprintf "negative acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d > %d" acquired maximum)
  else Ok ()
