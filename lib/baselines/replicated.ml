module Types = Samya.Types

let regions =
  [| Geonet.Region.Us_west1; Us_central1; Us_east1; Asia_east2; Europe_west2 |]

let processing_ms = 0.15

(* Admission control: transactions queued per entity at the leader. *)
let max_queue = 1

(* Re-queues of a transaction whose entries the leader refused. *)
let max_retries = 5

(* What the two protocols differ in: who leads, whether the leader's log
   accepted an entry (Raft refuses at a deposed leader), and what a crash
   does to the replica beyond its network endpoint. *)
type log = {
  leader : unit -> int option;
  append : int -> Rsm.command -> on_commit:(unit -> unit) -> bool;
  pause : int -> unit;
  resume : int -> unit;
}

(* The shared path only uses payload-agnostic network operations. *)
type net = Net : _ Geonet.Network.t -> net

type txn = {
  request : Types.request;
  reply : Types.response -> unit;
  ctx : Des.Trace_context.t;
      (* causal context the transaction arrived under, restored around its
         serialized execution so its rounds are attributed to it *)
  mutable attempts : int;
}

type t = {
  shard : Des.Shard.t;
  engine : Des.Engine.t; (* the shard's one lane *)
  net : net;
  states : Rsm.state array;
  log : log;
  gateway : Geonet.Region.t -> leader:int -> int;
      (* the replica a client in a region enters through *)
  rng : Des.Rng.t;
  queues : (Types.entity, txn Queue.t) Hashtbl.t;
  in_flight : (Types.entity, unit) Hashtbl.t;
  obs : Obs.Sink.port;
  mutable committed : int;
}

(* One replica per region of [regions], all on the one lane of a shard,
   each applying the log to its own state machine; [node] builds a
   replica around the lane's engine, its transport and apply hook,
   [handle] feeds it deliveries. *)
let replicate ~seed ~node ~handle =
  let shard =
    Des.Shard.create ~seed ~lanes:1 ~lookahead_ms:(Geonet.Region.min_cross_one_way_ms ()) ()
  in
  let engine = Des.Shard.engine shard 0 in
  let n = Array.length regions in
  let network = Geonet.Network.create shard ~node_lane:(Array.make n 0) ~seed ~regions () in
  let nodes = List.init n Fun.id in
  let states = Array.init n (fun _ -> Rsm.create_state ()) in
  let replicas =
    Array.init n (fun id ->
        node ~engine ~id ~nodes
          ~send:(fun dst msg -> Geonet.Network.send network ~src:id ~dst msg)
          ~on_apply:(fun _ command -> Rsm.apply states.(id) command))
  in
  Array.iteri
    (fun id replica ->
      Geonet.Network.register network ~node:id (fun envelope ->
          handle replica ~src:envelope.Geonet.Network.src envelope.Geonet.Network.payload))
    replicas;
  (shard, network, states, replicas)

let make shard network states ~gateway log =
  let engine = Des.Shard.engine shard 0 in
  {
    shard;
    engine;
    net = Net network;
    states;
    log;
    gateway;
    rng = Des.Rng.split (Des.Engine.rng engine);
    queues = Hashtbl.create 4;
    in_flight = Hashtbl.create 4;
    obs = Obs.Sink.port ();
    committed = 0;
  }

(* The replica nearest to a client region acts as its gateway: a network
   partition that separates the gateway's side from the leader makes that
   client's requests fail (Fig. 3d's "stale" minority side). *)
let nearest_replica region ~leader:_ =
  let best = ref 0 in
  Array.iteri
    (fun i r ->
      if Geonet.Region.one_way_ms region r < Geonet.Region.one_way_ms region regions.(!best)
      then best := i)
    regions;
  !best

let multipaxsys ?(seed = 42L) () =
  let leader = 1 in
  let shard, network, states, replicas =
    replicate ~seed
      ~node:(fun ~engine ~id ~nodes ~send ~on_apply ->
        Consensus.Multipaxos.create ~engine ~id ~nodes ~leader ~send ~on_apply ())
      ~handle:Consensus.Multipaxos.handle
  in
  let t =
    make shard network states ~gateway:nearest_replica
      {
        leader = (fun () -> Some leader);
        append =
          (fun id command ~on_commit ->
            Consensus.Multipaxos.submit replicas.(id) command ~on_commit;
            true);
        pause = ignore;
        resume = ignore;
      }
  in
  (* Loss/partition recovery: periodically re-push unacknowledged entries
     (multi-Paxos itself has no retransmission). *)
  let rec resend_loop () =
    Des.Engine.schedule t.engine ~delay_ms:500.0 (fun () ->
        if Geonet.Network.is_up network leader then
          Consensus.Multipaxos.resend_pending replicas.(leader);
        resend_loop ())
  in
  resend_loop ();
  t

let cockroach ?(seed = 42L) () =
  let shard, network, states, rafts =
    replicate ~seed
      ~node:(fun ~engine ~id ~nodes ~send ~on_apply ->
        (* WAN-scale timeouts (elections must outlast the slowest RTT);
           node 1 gets the shortest, so it becomes the first leaseholder. *)
        let election_timeout_ms =
          if id = 1 then (1_000.0, 1_200.0) else (2_400.0, 3_200.0)
        in
        Consensus.Raft.create ~engine ~id ~nodes ~send ~election_timeout_ms
          ~heartbeat_ms:400.0 ~on_apply ())
      ~handle:Consensus.Raft.handle
  in
  let leader () =
    let found = ref None in
    Array.iteri (fun i raft -> if Consensus.Raft.is_leader raft then found := Some i) rafts;
    !found
  in
  let t =
    (* The leaseholder is the client's gateway. *)
    make shard network states ~gateway:(fun _ ~leader -> leader)
      {
        leader;
        append =
          (fun id command ~on_commit ->
            Result.is_ok (Consensus.Raft.submit rafts.(id) command ~on_commit));
        pause = (fun i -> Consensus.Raft.pause rafts.(i));
        resume = (fun i -> Consensus.Raft.resume rafts.(i));
      }
  in
  Array.iter Consensus.Raft.start rafts;
  (* Let the first election settle before load arrives. *)
  let rec settle guard =
    if guard > 0 && leader () = None then begin
      Des.Shard.run shard ~until_ms:(Des.Shard.now shard +. 1_000.0);
      settle (guard - 1)
    end
  in
  settle 30;
  t

let shard t = t.shard

let set_net_tracer t tracer =
  let (Net network) = t.net in
  Geonet.Network.set_tracer network tracer

let obs_port t = t.obs

(* Record a causal event for [trace] if a sink is attached ([trace] is -1
   when the transaction arrived untraced). *)
let record_causal t ~trace event = if trace >= 0 then Obs.Sink.record t.obs event

let trace_of ctx = if Des.Trace_context.is_none ctx then -1 else ctx.Des.Trace_context.trace

let net_stats t =
  let (Net network) = t.net in
  ( Geonet.Network.stats_sent network,
    Geonet.Network.stats_delivered network,
    Geonet.Network.stats_dropped network )

let init_entity t ~entity ~maximum =
  Array.iter (fun state -> Rsm.set_maximum state ~entity maximum) t.states

let leader t = t.log.leader ()

let queue_for t entity =
  match Hashtbl.find_opt t.queues entity with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues entity q;
      q

(* The leader executes read-write transactions on an entity strictly one at
   a time: an intent entry then a commit entry, each a majority
   replication — the lock/commit structure that serializes conflicting
   transactions on a hot row. An entry the leader refuses (leadership lost
   mid-transaction) sends the transaction back to the queue, mirroring
   client retries. *)
let rec pump t entity =
  if not (Hashtbl.mem t.in_flight entity) then begin
    let q = queue_for t entity in
    if not (Queue.is_empty q) then begin
      match leader t with
      | None ->
          (* Election in progress; retry shortly. *)
          Des.Engine.schedule t.engine ~delay_ms:300.0 (fun () -> pump t entity)
      | Some leader ->
          let txn = Queue.pop q in
          if txn.attempts > max_retries then begin
            txn.reply Types.Unavailable;
            pump t entity
          end
          else begin
            txn.attempts <- txn.attempts + 1;
            Hashtbl.replace t.in_flight entity ();
            let state = t.states.(leader) in
            let delta =
              match txn.request with
              | Types.Acquire { amount; _ } -> amount
              | Types.Release { amount; _ } -> -amount
              | Types.Read _ -> 0
            in
            let trace = trace_of txn.ctx in
            let retry () =
              Hashtbl.remove t.in_flight entity;
              (* Back on the queue: reopen its admission window so the
                 retry delay is charged as queueing, not left uncovered. *)
              record_causal t ~trace
                (Enqueued
                   { trace; site = leader; label = "admission"; ts = Des.Engine.now t.engine });
              Queue.push txn q;
              Des.Engine.schedule t.engine ~delay_ms:300.0 (fun () -> pump t entity)
            in
            (* Execution runs under the transaction's own context (pump may
               be called from the previous transaction's commit), so the two
               replication rounds and their WAN hops are charged to it. *)
            Des.Engine.with_context t.engine txn.ctx (fun () ->
                let t_intent = Des.Engine.now t.engine in
                record_causal t ~trace (Dequeued { trace; site = leader; ts = t_intent });
                let on_intent () =
                  let t_commit = Des.Engine.now t.engine in
                  record_causal t ~trace
                    (Phase
                       {
                         trace;
                         site = leader;
                         name = "replicate.intent";
                         t0 = t_intent;
                         t1 = t_commit;
                       });
                  let on_commit () =
                    (* on_apply ran just before this callback. *)
                    let granted = Rsm.last_outcome state ~entity in
                    if granted then t.committed <- t.committed + 1;
                    Hashtbl.remove t.in_flight entity;
                    let t_done = Des.Engine.now t.engine in
                    record_causal t ~trace
                      (Phase
                         {
                           trace;
                           site = leader;
                           name = "replicate.commit";
                           t0 = t_commit;
                           t1 = t_done;
                         });
                    record_causal t ~trace
                      (Service
                         { trace; site = leader; t0 = t_done; t1 = t_done +. processing_ms });
                    Des.Engine.schedule t.engine ~delay_ms:processing_ms (fun () ->
                        txn.reply (if granted then Types.Granted else Types.Rejected));
                    pump t entity
                  in
                  if
                    not
                      (t.log.append leader
                         { Rsm.c_entity = entity; delta; intent = false }
                         ~on_commit)
                  then retry ()
                in
                if
                  not
                    (t.log.append leader
                       { Rsm.c_entity = entity; delta = 0; intent = true }
                       ~on_commit:on_intent)
                then retry ())
          end
    end
  end

let client_leg_ms t ~region ~leader =
  let base =
    (Geonet.Region.client_site_rtt_ms /. 2.0) +. Geonet.Region.one_way_ms region regions.(leader)
  in
  base +. Des.Rng.float t.rng (0.05 *. base)

let rec submit t ~region request ~reply =
  match Types.validate request with
  | Error _ -> reply Types.Rejected
  | Ok () -> (
      match leader t with
      | None ->
          (* No leader yet: back off once, then give up. *)
          Des.Engine.schedule t.engine ~delay_ms:500.0 (fun () ->
              match leader t with
              | None -> reply Types.Unavailable
              | Some _ -> submit t ~region request ~reply)
      | Some leader ->
          let there = client_leg_ms t ~region ~leader in
          let gateway = t.gateway region ~leader in
          Des.Engine.schedule t.engine ~delay_ms:there (fun () ->
              let (Net network) = t.net in
              if not (Geonet.Network.reachable network gateway leader) then
                Des.Engine.schedule t.engine ~delay_ms:there (fun () -> reply Types.Unavailable)
              else begin
                let reply response =
                  let back = client_leg_ms t ~region ~leader in
                  Des.Engine.schedule t.engine ~delay_ms:back (fun () -> reply response)
                in
                let ctx = Des.Engine.current_context t.engine in
                let trace = trace_of ctx in
                let now = Des.Engine.now t.engine in
                record_causal t ~trace (Accepted { trace; site = gateway; ts = now });
                match request with
                | Types.Read { entity; _ } ->
                    (* Reads execute at the leader without replication (§5.8). *)
                    let state = t.states.(leader) in
                    t.committed <- t.committed + 1;
                    record_causal t ~trace
                      (Service { trace; site = leader; t0 = now; t1 = now +. processing_ms });
                    Des.Engine.schedule t.engine ~delay_ms:processing_ms (fun () ->
                        reply (Types.Read_result { tokens_available = Rsm.available state ~entity }))
                | Types.Acquire { entity; _ } | Types.Release { entity; _ } ->
                    (* Admission control: a saturated hot row sheds load rather
                       than queueing without bound (the shed client times out
                       and is not counted as committed). *)
                    let q = queue_for t entity in
                    if Queue.length q < max_queue then begin
                      record_causal t ~trace
                        (Enqueued { trace; site = leader; label = "admission"; ts = now });
                      Queue.push { request; reply; ctx; attempts = 0 } q;
                      pump t entity
                    end
              end))

let crash_site t i =
  let (Net network) = t.net in
  Geonet.Network.crash network i;
  t.log.pause i

let recover_site t i =
  let (Net network) = t.net in
  Geonet.Network.recover network i;
  t.log.resume i

let partition t groups =
  let (Net network) = t.net in
  Geonet.Network.set_partition network groups

let heal t =
  let (Net network) = t.net in
  Geonet.Network.clear_partition network

let total_acquired t ~entity =
  Rsm.acquired t.states.(Option.value (leader t) ~default:0) ~entity

let committed_txns t = t.committed

let check_invariant t ~entity ~maximum =
  let acquired = total_acquired t ~entity in
  if acquired < 0 then Error (Printf.sprintf "negative acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d > %d" acquired maximum)
  else Ok ()
