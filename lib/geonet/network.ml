type 'msg envelope = {
  src : int;
  dst : int;
  sent_at : float;
  payload : 'msg;
}

(* Per-link fault overrides (chaos injection). A link is the directed pair
   (src, dst); absent entries mean "no override". *)
type link = {
  mutable l_drop : float option;  (* overrides the global drop probability *)
  mutable l_extra_ms : float;  (* added to the base one-way latency *)
  mutable l_blocked : bool;  (* one-way cut: src -> dst delivers nothing *)
}

type tracer = {
  on_send : src:int -> dst:int -> now_ms:float -> unit;
  on_deliver : src:int -> dst:int -> sent_at:float -> now_ms:float -> unit;
  on_drop : src:int -> dst:int -> sent_at:float -> now_ms:float -> unit;
}

(* Every event runs on the lane of the node executing it. Randomness
   comes from that lane's own stream (so lane-local draw order — hence
   the whole run — is independent of how many domains drain the
   windows), and counters are per-lane slots summed on read (no racing
   increments). *)
type 'msg t = {
  shard : Des.Shard.t;
  node_lane : int array;
  lane_rngs : Des.Rng.t array;
  regions : Region.t array;
  mutable drop_probability : float;
  mutable duplicate_probability : float;
  jitter_fraction : float;
  handlers : ('msg envelope -> unit) option array;
  up : bool array;
  mutable partition : int array option; (* group id per node; None = connected *)
  links : (int * int, link) Hashtbl.t;
  (* Counter slot per lane: a lane only bumps its own slot mid-window, so
     parallel drains never race. *)
  sent : int array;
  delivered : int array;
  dropped : int array;
  duplicated : int array;
  mutable tracer : tracer option;
}

let check_probability ~what p =
  (* [not (p >= 0 && p <= 1)] rather than [p < 0 || p > 1]: NaN fails every
     comparison, so the naive form would silently accept it. *)
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Network.%s: probability must be in [0, 1]" what)

(* Lane RNG streams hang off namespace 63 of the root seed — a reserved
   index far above any lane id, so they can never collide with the
   per-lane engine streams (indices 0 .. lanes-1). *)
let create shard ~node_lane ~seed ~regions ?(drop_probability = 0.0)
    ?(jitter_fraction = 0.05) () =
  check_probability ~what:"create (drop_probability)" drop_probability;
  if not (jitter_fraction >= 0.0) then
    invalid_arg "Network.create: jitter_fraction must be >= 0";
  let n = Array.length regions in
  if Array.length node_lane <> n then
    invalid_arg "Network.create: node_lane/regions length mismatch";
  let root = Des.Rng.stream_seed seed 63 in
  let lanes = Des.Shard.lanes shard in
  {
    shard;
    node_lane;
    lane_rngs = Array.init lanes (fun i -> Des.Rng.stream root i);
    regions;
    drop_probability;
    duplicate_probability = 0.0;
    jitter_fraction;
    handlers = Array.make n None;
    up = Array.make n true;
    partition = None;
    links = Hashtbl.create 8;
    sent = Array.make lanes 0;
    delivered = Array.make lanes 0;
    dropped = Array.make lanes 0;
    duplicated = Array.make lanes 0;
    tracer = None;
  }

let engine_of t ~node = Des.Shard.engine t.shard t.node_lane.(node)

(* Shared-state mutations (liveness, partitions, link overrides) are read
   by every lane mid-window, so they must execute at a window barrier
   ({!Des.Shard.schedule_global}) where no lane races the write. *)
let check_barrier t ~what =
  if Des.Shard.in_window t.shard then
    invalid_arg
      (Printf.sprintf
         "Network.%s: shared-state mutation inside a shard window (schedule it \
          with Shard.schedule_global)"
         what)

let set_tracer t tracer = t.tracer <- tracer

let node_count t = Array.length t.regions

let region_of t i = t.regions.(i)

let register t ~node handler = t.handlers.(node) <- Some handler

let latency_ms t ~src ~dst = Region.one_way_ms t.regions.(src) t.regions.(dst)

let same_partition t a b =
  match t.partition with None -> true | Some groups -> groups.(a) = groups.(b)

let link t ~src ~dst = Hashtbl.find_opt t.links (src, dst)

let edit_link t ~src ~dst f =
  match link t ~src ~dst with
  | Some l -> f l
  | None ->
      let l = { l_drop = None; l_extra_ms = 0.0; l_blocked = false } in
      f l;
      Hashtbl.replace t.links (src, dst) l

let link_blocked t ~src ~dst =
  match link t ~src ~dst with Some l -> l.l_blocked | None -> false

let reachable t a b = t.up.(a) && t.up.(b) && same_partition t a b

let link_open t ~src ~dst = reachable t src dst && not (link_blocked t ~src ~dst)

(* Route the delivery event to the destination node's lane. Same-lane
   deliveries go straight into the local heap; cross-lane ones travel
   over the shard's bounded channels and carry the sender's ambient trace
   context explicitly, because the flush at the window barrier happens
   outside any event — there is no ambient context to inherit there. *)
let schedule_delivery t ~src ~dst ~delay_ms f =
  let src_lane = t.node_lane.(src) and dst_lane = t.node_lane.(dst) in
  let src_engine = Des.Shard.engine t.shard src_lane in
  let time_ms = Des.Engine.now src_engine +. Float.max 0.0 delay_ms in
  if src_lane = dst_lane then Des.Engine.schedule_at src_engine ~time_ms f
  else begin
    let ctx = Des.Engine.current_context src_engine in
    let f =
      if Des.Trace_context.is_none ctx then f
      else begin
        let dst_engine = Des.Shard.engine t.shard dst_lane in
        fun () -> Des.Engine.with_context dst_engine ctx f
      end
    in
    Des.Shard.schedule_cross t.shard ~src:src_lane ~dst:dst_lane ~time_ms f
  end

let deliver t ~src ~dst ~sent_at ~dropped_in_flight payload delay_ms =
  (* Partition, liveness and one-way cuts are evaluated at delivery time so
     that a fault healed mid-flight lets late messages through, matching an
     asynchronous network where delay and disconnection are
     indistinguishable. The envelope is only materialised on delivery, so a
     dropped message costs nothing beyond its in-flight closure. *)
  schedule_delivery t ~src ~dst ~delay_ms (fun () ->
      let lane = t.node_lane.(dst) in
      let trace_drop () =
        match t.tracer with
        | Some tr ->
            tr.on_drop ~src ~dst ~sent_at ~now_ms:(Des.Engine.now (engine_of t ~node:dst))
        | None -> ()
      in
      if dropped_in_flight || not (link_open t ~src ~dst) then begin
        t.dropped.(lane) <- t.dropped.(lane) + 1;
        trace_drop ()
      end
      else
        match t.handlers.(dst) with
        | None ->
            t.dropped.(lane) <- t.dropped.(lane) + 1;
            trace_drop ()
        | Some handler ->
            t.delivered.(lane) <- t.delivered.(lane) + 1;
            (match t.tracer with
            | Some tr ->
                tr.on_deliver ~src ~dst ~sent_at
                  ~now_ms:(Des.Engine.now (engine_of t ~node:dst))
            | None -> ());
            handler { src; dst; sent_at; payload })

(* [send] always executes on the source node's lane (site protocol code
   runs on its own engine; barrier-time globals run with no window open),
   so the RNG draws and counter bumps below are lane-local. *)
let send t ~src ~dst payload =
  let src_lane = t.node_lane.(src) in
  let src_engine = Des.Shard.engine t.shard src_lane in
  let rng = t.lane_rngs.(src_lane) in
  t.sent.(src_lane) <- t.sent.(src_lane) + 1;
  (match t.tracer with
  | Some tr -> tr.on_send ~src ~dst ~now_ms:(Des.Engine.now src_engine)
  | None -> ());
  if not t.up.(src) then t.dropped.(src_lane) <- t.dropped.(src_lane) + 1
  else begin
    let override = link t ~src ~dst in
    let extra = match override with Some l -> l.l_extra_ms | None -> 0.0 in
    let base = latency_ms t ~src ~dst +. extra in
    let jitter = Des.Rng.float rng (t.jitter_fraction *. Float.max base 1.0) in
    let sent_at = Des.Engine.now src_engine in
    let drop_p =
      match override with
      | Some { l_drop = Some p; _ } -> Float.max p t.drop_probability
      | Some _ | None -> t.drop_probability
    in
    let dropped_in_flight = Des.Rng.bool rng drop_p in
    let ctx = Des.Engine.current_context src_engine in
    if Des.Trace_context.is_none ctx then begin
      deliver t ~src ~dst ~sent_at ~dropped_in_flight payload (base +. jitter);
      (* The guard keeps the RNG stream identical for configurations that
         never enable duplication (byte-identical legacy runs). *)
      if t.duplicate_probability > 0.0 && Des.Rng.bool rng t.duplicate_probability
      then begin
        t.duplicated.(src_lane) <- t.duplicated.(src_lane) + 1;
        let jitter' = Des.Rng.float rng (t.jitter_fraction *. Float.max base 1.0) in
        deliver t ~src ~dst ~sent_at ~dropped_in_flight:false payload (base +. jitter')
      end
    end
    else begin
      (* The message crosses a causal edge: delivery (and everything the
         handler does) runs one hop further down the sender's lineage. All
         randomness is drawn above this branch, so traced and untraced
         runs see identical RNG streams. A duplicate reuses the edge — it
         is the same logical message. *)
      let child = Des.Trace_context.child ctx ~edge:(Des.Engine.fresh_id src_engine) in
      Des.Engine.with_context src_engine child (fun () ->
          deliver t ~src ~dst ~sent_at ~dropped_in_flight payload (base +. jitter);
          if
            t.duplicate_probability > 0.0 && Des.Rng.bool rng t.duplicate_probability
          then begin
            t.duplicated.(src_lane) <- t.duplicated.(src_lane) + 1;
            let jitter' =
              Des.Rng.float rng (t.jitter_fraction *. Float.max base 1.0)
            in
            deliver t ~src ~dst ~sent_at ~dropped_in_flight:false payload
              (base +. jitter')
          end)
    end
  end

let broadcast t ~src payload =
  for dst = 0 to node_count t - 1 do
    if dst <> src then send t ~src ~dst payload
  done

let crash t node =
  check_barrier t ~what:"crash";
  t.up.(node) <- false

let recover t node =
  check_barrier t ~what:"recover";
  t.up.(node) <- true

let is_up t node = t.up.(node)

let set_partition t groups =
  check_barrier t ~what:"set_partition";
  let assignment = Array.make (node_count t) (-1) in
  List.iteri
    (fun group_id members ->
      List.iter (fun node -> assignment.(node) <- group_id) members)
    groups;
  (* Unlisted nodes each get their own singleton group. *)
  let next = ref (List.length groups) in
  Array.iteri
    (fun node group ->
      if group = -1 then begin
        assignment.(node) <- !next;
        incr next
      end)
    assignment;
  t.partition <- Some assignment

let clear_partition t =
  check_barrier t ~what:"clear_partition";
  t.partition <- None

let set_drop_probability t p =
  check_probability ~what:"set_drop_probability" p;
  check_barrier t ~what:"set_drop_probability";
  t.drop_probability <- p

let drop_probability t = t.drop_probability

let set_duplicate_probability t p =
  check_probability ~what:"set_duplicate_probability" p;
  check_barrier t ~what:"set_duplicate_probability";
  t.duplicate_probability <- p

let set_link_drop t ~src ~dst p =
  (match p with
  | Some p -> check_probability ~what:"set_link_drop" p
  | None -> ());
  check_barrier t ~what:"set_link_drop";
  edit_link t ~src ~dst (fun l -> l.l_drop <- p)

let set_link_extra_latency t ~src ~dst extra_ms =
  if not (extra_ms >= 0.0) then
    invalid_arg "Network.set_link_extra_latency: extra latency must be >= 0";
  check_barrier t ~what:"set_link_extra_latency";
  edit_link t ~src ~dst (fun l -> l.l_extra_ms <- extra_ms)

let block_one_way t ~src ~dst =
  check_barrier t ~what:"block_one_way";
  edit_link t ~src ~dst (fun l -> l.l_blocked <- true)

let unblock_one_way t ~src ~dst =
  check_barrier t ~what:"unblock_one_way";
  edit_link t ~src ~dst (fun l -> l.l_blocked <- false)

let clear_link_overrides t =
  check_barrier t ~what:"clear_link_overrides";
  Hashtbl.reset t.links

let sum = Array.fold_left ( + ) 0

let stats_sent t = sum t.sent
let stats_delivered t = sum t.delivered
let stats_dropped t = sum t.dropped
let stats_duplicated t = sum t.duplicated
