module Types = Samya.Types

type txn = {
  request : Types.request;
  reply : Types.response -> unit;
  ctx : Des.Trace_context.t;
      (* causal context the transaction arrived under, restored around its
         serialized execution so its rounds are attributed to it *)
  mutable attempts : int;
}

type t = {
  engine : Des.Engine.t;
  network : Rsm.command Consensus.Raft.msg Geonet.Network.t;
  region_array : Geonet.Region.t array;
  rafts : Rsm.command Consensus.Raft.t array;
  states : Rsm.state array;
  processing_ms : float;
  max_queue : int;
  rng : Des.Rng.t;
  queues : (Types.entity, txn Queue.t) Hashtbl.t;
  in_flight : (Types.entity, unit) Hashtbl.t;
  obs : Obs.Sink.port;
  mutable committed : int;
  mutable dropped : int;
}

(* CockroachDB's replicate-where-fast placement: like Spanner, a deployment
   that cares about write latency keeps a replication majority in nearby
   regions, so the default placement mirrors MultiPaxSys's. *)
let default_regions () =
  [| Geonet.Region.Us_west1; Us_central1; Us_east1; Asia_east2; Europe_west2 |]

let create ?(seed = 42L) ?regions ?(processing_ms = 0.15) ?(max_queue = 1) () =
  let regions = match regions with Some r -> r | None -> default_regions () in
  let engine = Des.Engine.create ~seed () in
  let network = Geonet.Network.create engine ~regions () in
  let n = Array.length regions in
  let nodes = List.init n (fun i -> i) in
  let states = Array.init n (fun _ -> Rsm.create_state ()) in
  let rafts =
    Array.init n (fun id ->
        let send dst msg = Geonet.Network.send network ~src:id ~dst msg in
        let on_apply _ command = Rsm.apply states.(id) command in
        (* WAN-scale timeouts (elections must outlast the slowest RTT).
           Node 0 gets the shortest timeout so the initial leaseholder
           lands in the primary region deterministically, as CockroachDB's
           lease preferences would arrange. *)
        let election_timeout_ms =
          if id = 1 then (1_000.0, 1_200.0) else (2_400.0, 3_200.0)
        in
        Consensus.Raft.create ~engine ~id ~nodes ~send ~election_timeout_ms
          ~heartbeat_ms:400.0 ~on_apply ())
  in
  Array.iteri
    (fun id raft ->
      Geonet.Network.register network ~node:id (fun envelope ->
          Consensus.Raft.handle raft ~src:envelope.Geonet.Network.src
            envelope.Geonet.Network.payload))
    rafts;
  {
    engine;
    network;
    region_array = regions;
    rafts;
    states;
    processing_ms;
    max_queue;
    rng = Des.Rng.split (Des.Engine.rng engine);
    queues = Hashtbl.create 4;
    in_flight = Hashtbl.create 4;
    obs = Obs.Sink.port ();
    committed = 0;
    dropped = 0;
  }

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

let start t = Array.iter Consensus.Raft.start t.rafts

let init_entity t ~entity ~maximum =
  Array.iter (fun state -> Rsm.set_maximum state ~entity maximum) t.states

let leader t =
  let found = ref None in
  Array.iteri (fun i raft -> if Consensus.Raft.is_leader raft then found := Some i) t.rafts;
  !found

let queue_for t entity =
  match Hashtbl.find_opt t.queues entity with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues entity q;
      q

(* Leaseholder-serialized execution: a write intent entry then a commit
   entry, each a Raft majority replication — the same two-round structure
   as MultiPaxSys, plus Raft's bookkeeping, which is why CockroachDB lands
   slightly behind it in Table 2b. Lost leadership mid-transaction retries
   from the queue (bounded), mirroring client retries. *)
let rec pump t entity =
  if not (Hashtbl.mem t.in_flight entity) then begin
    let q = queue_for t entity in
    if not (Queue.is_empty q) then begin
      match leader t with
      | None ->
          (* Election in progress; retry shortly. *)
          Des.Engine.schedule t.engine ~delay_ms:300.0 (fun () -> pump t entity)
      | Some leader_id -> (
          let txn = Queue.pop q in
          if txn.attempts > 5 then begin
            txn.reply Types.Unavailable;
            pump t entity
          end
          else begin
            txn.attempts <- txn.attempts + 1;
            Hashtbl.replace t.in_flight entity ();
            let raft = t.rafts.(leader_id) in
            let state = t.states.(leader_id) in
            let delta =
              match txn.request with
              | Types.Acquire { amount; _ } -> amount
              | Types.Release { amount; _ } -> -amount
              | Types.Read _ -> 0
            in
            let trace =
              if Des.Trace_context.is_none txn.ctx then -1
              else txn.ctx.Des.Trace_context.trace
            in
            let retry () =
              Hashtbl.remove t.in_flight entity;
              (* Back on the queue: reopen its admission window so the
                 retry delay is charged as queueing, not left uncovered. *)
              record_causal t ~trace
                (Enqueued
                   {
                     trace;
                     site = leader_id;
                     label = "admission";
                     ts = Des.Engine.now t.engine;
                   });
              Queue.push txn q;
              Des.Engine.schedule t.engine ~delay_ms:300.0 (fun () -> pump t entity)
            in
            (* Execution runs under the transaction's own context (pump may
               be called from the previous transaction's commit), so the two
               replication rounds and their WAN hops are charged to it. *)
            Des.Engine.with_context t.engine txn.ctx (fun () ->
                let t_intent = Des.Engine.now t.engine in
                record_causal t ~trace
                  (Dequeued { trace; site = leader_id; ts = t_intent });
                let submit_commit () =
                  let t_commit = Des.Engine.now t.engine in
                  record_causal t ~trace
                    (Phase
                       {
                         trace;
                         site = leader_id;
                         name = "replicate.intent";
                         t0 = t_intent;
                         t1 = t_commit;
                       });
                  match
                    Consensus.Raft.submit raft
                      { Rsm.c_entity = entity; delta; intent = false }
                      ~on_commit:(fun () ->
                        let granted = Rsm.last_outcome state ~entity in
                        if granted then t.committed <- t.committed + 1;
                        Hashtbl.remove t.in_flight entity;
                        let t_done = Des.Engine.now t.engine in
                        record_causal t ~trace
                          (Phase
                             {
                               trace;
                               site = leader_id;
                               name = "replicate.commit";
                               t0 = t_commit;
                               t1 = t_done;
                             });
                        record_causal t ~trace
                          (Service
                             {
                               trace;
                               site = leader_id;
                               t0 = t_done;
                               t1 = t_done +. t.processing_ms;
                             });
                        Des.Engine.schedule t.engine ~delay_ms:t.processing_ms
                          (fun () ->
                            txn.reply
                              (if granted then Types.Granted else Types.Rejected));
                        pump t entity)
                  with
                  | Ok _ -> ()
                  | Error _ -> retry ()
                in
                match
                  Consensus.Raft.submit raft
                    { Rsm.c_entity = entity; delta = 0; intent = true }
                    ~on_commit:submit_commit
                with
                | Ok _ -> ()
                | Error _ -> retry ())
          end)
    end
  end

let client_leg_ms t ~region ~dst =
  let base =
    (Geonet.Region.client_site_rtt_ms /. 2.0)
    +. Geonet.Region.one_way_ms region t.region_array.(dst)
  in
  base +. Des.Rng.float t.rng (0.05 *. base)

let rec submit t ~region request ~reply =
  match Types.validate request with
  | Error _ -> reply Types.Rejected
  | Ok () -> (
      match leader t with
      | None ->
          (* No leaseholder yet: back off once, then give up. *)
          Des.Engine.schedule t.engine ~delay_ms:500.0 (fun () ->
              match leader t with
              | None -> reply Types.Unavailable
              | Some _ -> submit t ~region request ~reply)
      | Some leader_id ->
          let there = client_leg_ms t ~region ~dst:leader_id in
          Des.Engine.schedule t.engine ~delay_ms:there (fun () ->
              if not (Geonet.Network.is_up t.network leader_id) then
                Des.Engine.schedule t.engine ~delay_ms:there (fun () ->
                    reply Types.Unavailable)
              else begin
                let reply response =
                  let back = client_leg_ms t ~region ~dst:leader_id in
                  Des.Engine.schedule t.engine ~delay_ms:back (fun () -> reply response)
                in
                let ctx = Des.Engine.current_context t.engine in
                let trace =
                  if Des.Trace_context.is_none ctx then -1
                  else ctx.Des.Trace_context.trace
                in
                let now = Des.Engine.now t.engine in
                record_causal t ~trace
                  (Accepted { trace; site = leader_id; ts = now });
                match request with
                | Types.Read { entity; _ } ->
                    let state = t.states.(leader_id) in
                    t.committed <- t.committed + 1;
                    record_causal t ~trace
                      (Service
                         {
                           trace;
                           site = leader_id;
                           t0 = now;
                           t1 = now +. t.processing_ms;
                         });
                    Des.Engine.schedule t.engine ~delay_ms:t.processing_ms (fun () ->
                        reply
                          (Types.Read_result
                             { tokens_available = Rsm.available state ~entity }))
                | Types.Acquire { entity; _ } | Types.Release { entity; _ } ->
                    (* Same admission control as MultiPaxSys. *)
                    let q = queue_for t entity in
                    if Queue.length q >= t.max_queue then t.dropped <- t.dropped + 1
                    else begin
                      record_causal t ~trace
                        (Enqueued
                           { trace; site = leader_id; label = "admission"; ts = now });
                      Queue.push { request; reply; ctx; attempts = 0 } q;
                      pump t entity
                    end
              end))

let crash_site t i =
  Geonet.Network.crash t.network i;
  Consensus.Raft.pause t.rafts.(i)

let recover_site t i =
  Geonet.Network.recover t.network i;
  Consensus.Raft.resume t.rafts.(i)

let partition t groups = Geonet.Network.set_partition t.network groups
let heal t = Geonet.Network.clear_partition t.network

let total_acquired t ~entity =
  match leader t with
  | Some id -> Rsm.acquired t.states.(id) ~entity
  | None -> Rsm.acquired t.states.(0) ~entity

let committed_txns t = t.committed

let check_invariant t ~entity ~maximum =
  let acquired = total_acquired t ~entity in
  if acquired < 0 then Error (Printf.sprintf "negative acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d > %d" acquired maximum)
  else Ok ()
