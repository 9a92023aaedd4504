module Types = Samya.Types

type msg =
  | Borrow_request of { b_entity : Types.entity; needed : int }
  | Borrow_grant of { b_entity : Types.entity; tokens : int }

type borrow = {
  mutable to_ask : int list;
  mutable patience : Des.Engine.timer option;
}

type ctx = {
  mutable tokens_left : int;
  mutable acquired_net : int;
  queue : (Types.request * (Types.response -> unit) * Des.Trace_context.t) Queue.t;
      (* each entry keeps the causal context it arrived under, restored
         around its eventual service so lineage survives the borrow *)
  mutable borrowing : borrow option;
}

type site = {
  site_id : int;
  entities : (Types.entity, ctx) Hashtbl.t;
  mutable busy_until : float;
}

type t = {
  engine : Des.Engine.t;
  network : msg Geonet.Network.t;
  region_array : Geonet.Region.t array;
  sites : site array;
  rng : Des.Rng.t;
  obs : Obs.Sink.port;
  mutable borrow_count : int;
}

let default_regions () = Array.of_list Geonet.Region.default_five

let processing_ms = 0.15

(* A borrower that hears nothing back gives up after this long. *)
let borrow_patience_ms = 10_000.0

(* The fixed escrow chunk a lender adds on top of the borrower's need. *)
let borrow_quantum = 10

let engine t = t.engine

let set_net_tracer t tracer = Geonet.Network.set_tracer t.network tracer

let obs_port t = t.obs

(* Record a causal event for [trace] if a sink is attached ([trace] is -1
   when the request arrived untraced). *)
let record_causal t ~trace event = if trace >= 0 then Obs.Sink.record t.obs event

let ambient_trace t =
  let ctx = Des.Engine.current_context t.engine in
  if Des.Trace_context.is_none ctx then -1 else ctx.Des.Trace_context.trace

let net_stats t =
  ( Geonet.Network.stats_sent t.network,
    Geonet.Network.stats_delivered t.network,
    Geonet.Network.stats_dropped t.network )

let ctx_of t site entity =
  match Hashtbl.find_opt t.sites.(site).entities entity with
  | Some ctx -> ctx
  | None ->
      let ctx =
        { tokens_left = 0; acquired_net = 0; queue = Queue.create (); borrowing = None }
      in
      Hashtbl.replace t.sites.(site).entities entity ctx;
      ctx

let init_entity t ~entity ~maximum =
  let n = Array.length t.sites in
  let share = maximum / n and extra = maximum mod n in
  Array.iteri
    (fun i _ ->
      let ctx = ctx_of t i entity in
      ctx.tokens_left <- share + (if i < extra then 1 else 0))
    t.sites

(* The CPU finish is an event of its own here, unlike at a Samya site,
   whose reply takes the finish time and folds it into the return leg
   (DESIGN.md §5). Leaving this baseline's event order alone keeps its
   outputs fixed across changes to Samya's reply path. *)
let reply_after_processing t site reply response =
  let s = t.sites.(site) in
  let now = Des.Engine.now t.engine in
  let start = Float.max now s.busy_until in
  let finish = start +. processing_ms in
  s.busy_until <- finish;
  let trace = ambient_trace t in
  if trace >= 0 then begin
    if start > now then
      record_causal t ~trace
        (Wait { trace; site; label = "cpu"; t0 = now; t1 = start });
    record_causal t ~trace
      (Service { trace; site; t0 = start; t1 = finish })
  end;
  Des.Engine.schedule_at t.engine ~time_ms:finish (fun () -> reply response)

(* Peers in proximity order from a borrower's region. *)
let peers_by_proximity t site =
  let region = t.region_array.(site) in
  List.init (Array.length t.sites) (fun i -> i)
  |> List.filter (fun i -> i <> site)
  |> List.sort (fun a b ->
         compare
           (Geonet.Region.one_way_ms region t.region_array.(a), a)
           (Geonet.Region.one_way_ms region t.region_array.(b), b))

let queued_acquire_total ctx =
  Queue.fold
    (fun acc (request, _, _) ->
      match request with Types.Acquire { amount; _ } -> acc + amount | _ -> acc)
    0 ctx.queue

let stop_patience borrow =
  (match borrow.patience with Some timer -> Des.Engine.cancel timer | None -> ());
  borrow.patience <- None

(* Borrow finished (satisfied, out of peers, or timed out): serve the queue;
   releases and servable acquires succeed, the rest are rejected. *)
let finish_borrow t site entity =
  let ctx = ctx_of t site entity in
  (match ctx.borrowing with Some b -> stop_patience b | None -> ());
  ctx.borrowing <- None;
  let items = Queue.length ctx.queue in
  for _ = 1 to items do
    let request, reply, rctx = Queue.pop ctx.queue in
    (* Service runs under the parked request's own context: the queue wait
       closes on its trace and the CPU window is charged to it, not to
       whichever grant delivery drained the queue. *)
    Des.Engine.with_context t.engine rctx (fun () ->
        (if not (Des.Trace_context.is_none rctx) then
           let trace = rctx.Des.Trace_context.trace in
           record_causal t ~trace
             (Dequeued { trace; site; ts = Des.Engine.now t.engine }));
        match request with
        | Types.Release { amount; _ } ->
            ctx.tokens_left <- ctx.tokens_left + amount;
            ctx.acquired_net <- ctx.acquired_net - amount;
            reply_after_processing t site reply Types.Granted
        | Types.Acquire { amount; _ } ->
            if ctx.tokens_left >= amount then begin
              ctx.tokens_left <- ctx.tokens_left - amount;
              ctx.acquired_net <- ctx.acquired_net + amount;
              reply_after_processing t site reply Types.Granted
            end
            else reply_after_processing t site reply Types.Rejected
        | Types.Read _ -> reply_after_processing t site reply Types.Rejected)
  done

let ask_next t site entity =
  let ctx = ctx_of t site entity in
  match ctx.borrowing with
  | None -> ()
  | Some borrow -> (
      let needed = queued_acquire_total ctx - ctx.tokens_left in
      if needed <= 0 then finish_borrow t site entity
      else
        match borrow.to_ask with
        | [] -> finish_borrow t site entity
        | peer :: rest ->
            borrow.to_ask <- rest;
            t.borrow_count <- t.borrow_count + 1;
            Geonet.Network.send t.network ~src:site ~dst:peer
              (Borrow_request { b_entity = entity; needed });
            stop_patience borrow;
            borrow.patience <-
              Some
                (Des.Engine.timer t.engine ~delay_ms:borrow_patience_ms (fun () ->
                     (* Reliable-network assumption violated (crash or
                        partition): give up to avoid blocking forever. *)
                     finish_borrow t site entity)))

let start_borrow t site entity =
  let ctx = ctx_of t site entity in
  if ctx.borrowing = None then begin
    ctx.borrowing <- Some { to_ask = peers_by_proximity t site; patience = None };
    ask_next t site entity
  end

let serve t site request reply =
  let entity = Types.request_entity request in
  let ctx = ctx_of t site entity in
  let rctx = Des.Engine.current_context t.engine in
  let trace =
    if Des.Trace_context.is_none rctx then -1 else rctx.Des.Trace_context.trace
  in
  record_causal t ~trace
    (Accepted { trace; site; ts = Des.Engine.now t.engine });
  let park () =
    record_causal t ~trace
      (Enqueued
         { trace; site; label = "borrow"; ts = Des.Engine.now t.engine });
    Queue.push (request, reply, rctx) ctx.queue
  in
  match request with
  | Types.Read _ ->
      (* Demarcation serves reads from the local escrow view only. *)
      reply_after_processing t site reply
        (Types.Read_result { tokens_available = ctx.tokens_left })
  | Types.Release { amount; _ } ->
      if ctx.borrowing <> None then park ()
      else begin
        ctx.tokens_left <- ctx.tokens_left + amount;
        ctx.acquired_net <- ctx.acquired_net - amount;
        reply_after_processing t site reply Types.Granted
      end
  | Types.Acquire { amount; _ } ->
      if ctx.borrowing <> None then park ()
      else if ctx.tokens_left >= amount then begin
        ctx.tokens_left <- ctx.tokens_left - amount;
        ctx.acquired_net <- ctx.acquired_net + amount;
        reply_after_processing t site reply Types.Granted
      end
      else begin
        park ();
        start_borrow t site entity
      end

let handle t site envelope =
  match envelope.Geonet.Network.payload with
  | Borrow_request { b_entity; needed } ->
      let ctx = ctx_of t site b_entity in
      (* Demarcation-style incremental limit adjustment: lend the need plus
         a fixed escrow quantum — not a share of the pool, which is exactly
         the inefficiency Samya's redistribution removes (§5.3). *)
      let grant = min ctx.tokens_left (needed + borrow_quantum) in
      ctx.tokens_left <- ctx.tokens_left - grant;
      Geonet.Network.send t.network ~src:site ~dst:envelope.Geonet.Network.src
        (Borrow_grant { b_entity; tokens = grant })
  | Borrow_grant { b_entity; tokens } ->
      let ctx = ctx_of t site b_entity in
      ctx.tokens_left <- ctx.tokens_left + tokens;
      ask_next t site b_entity

let create ?(seed = 42L) ?regions () =
  let regions = match regions with Some r -> r | None -> default_regions () in
  let engine = Des.Engine.create ~seed () in
  let network = Geonet.Network.create engine ~regions () in
  let sites =
    Array.init (Array.length regions) (fun site_id ->
        { site_id; entities = Hashtbl.create 4; busy_until = 0.0 })
  in
  let t =
    {
      engine;
      network;
      region_array = regions;
      sites;
      rng = Des.Rng.split (Des.Engine.rng engine);
      obs = Obs.Sink.port ();
      borrow_count = 0;
    }
  in
  Array.iteri
    (fun site _ ->
      Geonet.Network.register network ~node:site (fun envelope -> handle t site envelope))
    sites;
  t

let route t ~region =
  let best = ref None in
  Array.iteri
    (fun i _ ->
      if Geonet.Network.is_up t.network i then begin
        let distance = Geonet.Region.one_way_ms region t.region_array.(i) in
        match !best with
        | Some (_, d) when d <= distance -> ()
        | Some _ | None -> best := Some (i, distance)
      end)
    t.sites;
  !best

let client_leg_ms t ~region ~site =
  let base =
    (Geonet.Region.client_site_rtt_ms /. 2.0)
    +. Geonet.Region.one_way_ms region t.region_array.(site)
  in
  base +. Des.Rng.float t.rng (0.05 *. base)

let submit t ~region request ~reply =
  match Types.validate request with
  | Error _ -> reply Types.Rejected
  | Ok () -> (
      match route t ~region with
      | None -> reply Types.Unavailable
      | Some (site, _) ->
          let there = client_leg_ms t ~region ~site in
          Des.Engine.schedule t.engine ~delay_ms:there (fun () ->
              serve t site request (fun response ->
                  let back = client_leg_ms t ~region ~site in
                  Des.Engine.schedule t.engine ~delay_ms:back (fun () -> reply response))))

let crash_site t i = Geonet.Network.crash t.network i
let recover_site t i = Geonet.Network.recover t.network i
let partition t groups = Geonet.Network.set_partition t.network groups
let heal t = Geonet.Network.clear_partition t.network

let fold_entities t ~entity f =
  Array.fold_left
    (fun acc site ->
      match Hashtbl.find_opt site.entities entity with
      | Some ctx -> acc + f ctx
      | None -> acc)
    0 t.sites

let total_tokens_left t ~entity = fold_entities t ~entity (fun ctx -> ctx.tokens_left)
let total_acquired t ~entity = fold_entities t ~entity (fun ctx -> ctx.acquired_net)
let borrows t = t.borrow_count

let check_invariant t ~entity ~maximum =
  let acquired = total_acquired t ~entity in
  let left = total_tokens_left t ~entity in
  if acquired < 0 then Error (Printf.sprintf "negative acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d > %d" acquired maximum)
  else if left + acquired <> maximum then
    Error
      (Printf.sprintf "tokens not conserved: left %d + acquired %d <> %d" left acquired
         maximum)
  else Ok ()
