(* Every deployment runs on a region-sharded {!Des.Shard}: each site sits
   on its hosting region's lane (one lane when all sites share a region),
   and every lane has its own deterministic client-leg stream: leg jitter
   is drawn by whichever lane executes the leg (client lane outbound,
   site lane for the return), so the draw order — and therefore the whole
   run — does not depend on how many domains drain the windows.

   A served request costs two events, one per client leg. Every region's
   home site (its nearest) is on the region's lane, so the client
   schedules its send at {!arrival_ms} — the outbound leg is drawn then —
   and a [submit] it makes there after {!arrive} is served at the site in
   place. A direct caller's [submit] is issued when it is made and
   schedules its outbound leg, which runs the site. Either way the site
   answers when it commits to a response and says when that response
   leaves ({!Types.reply}); the return jitter is drawn then, on the site
   lane, and the return leg is scheduled from the site's CPU finish. *)
type t = {
  shard : Des.Shard.t;
  region_lane : int array; (* lane per Region.index *)
  routes : int array array; (* per Region.index: sites by (one-way ms, id) *)
  leg_base : float array array; (* per Region.index, per site: leg before jitter *)
  lane_leg_rngs : Des.Rng.t array;
  arriving : float array;
      (* per Region.index: the issue time of the send whose arrival the
         next submit is ({!arrive}), [nan] otherwise *)
  crashed_at : float array; (* per site: its last crash, [neg_infinity] if none *)
  network : Site.net_msg Geonet.Network.t;
  regions : Geonet.Region.t array;
  sites : Site.t array;
  directory : Entity_map.Directory.t;
      (* the one name -> (eid, maximum) map every site's arena indexes by;
         written only between windows, read concurrently by lanes inside
         them *)
  obs : Obs.Sink.port;
      (* one port shared by every site (each writes to its own lane) and
         by the cluster itself for fault events (lane -1) *)
}

let create ?(seed = 42L) ?(engine_jobs = 1) ~config ~regions ?forecaster
    ?(drop_probability = 0.0) ?on_protocol_event ?(obs = Obs.Sink.port ()) () =
  if Array.length regions = 0 then invalid_arg "Cluster.create: no regions";
  if engine_jobs < 1 then
    invalid_arg
      (Printf.sprintf "Cluster.create: engine_jobs must be >= 1 (got %d)" engine_jobs);
  let node_lane, region_lane, lanes = Geonet.Region.lane_assignment regions in
  let lookahead_ms = Geonet.Region.min_cross_one_way_ms () in
  let shard = Des.Shard.create ~seed ~workers:engine_jobs ~lanes ~lookahead_ms () in
  let network =
    Geonet.Network.create shard ~node_lane ~seed ~regions ~drop_probability ()
  in
  let directory =
    Entity_map.Directory.create ~shards:config.Config.entity_shards
      ~capacity:config.Config.entity_capacity ()
  in
  let sites =
    Array.init (Array.length regions) (fun id ->
        let on_protocol_event =
          Option.map (fun f -> fun ~entity event -> f ~site:id ~entity event)
            on_protocol_event
        in
        Site.create ~config ~network ~directory ~id ?forecaster ?on_protocol_event ~obs
          ~lane:node_lane.(id) ())
  in
  (* Leg streams hang off reserved namespace 62 of the root seed — the
     network uses 63, lane engines use 0 .. lanes-1; none overlap. *)
  let root = Des.Rng.stream_seed seed 62 in
  let lane_leg_rngs = Array.init lanes (Des.Rng.stream root) in
  let per_region f = Array.of_list (List.map f Geonet.Region.all) in
  let one_way region i = Geonet.Region.one_way_ms region regions.(i) in
  let n = Array.length regions in
  let routes =
    per_region (fun region ->
        let order = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Float.compare (one_way region a) (one_way region b)) order;
        order)
  in
  (* Client -> app manager (same region) -> site; the same way back. *)
  let leg_base =
    per_region (fun region ->
        Array.init n (fun i -> (Geonet.Region.client_site_rtt_ms /. 2.0) +. one_way region i))
  in
  (* A region's home is its nearest site, and a region without a site
     rides its nearest site's lane (both tie to the lowest node index), so
     a send to the home never crosses lanes: its arrival can be scheduled
     from the client's lane at any distance. *)
  Array.iteri
    (fun ri order -> assert (node_lane.(order.(0)) = region_lane.(ri)))
    routes;
  {
    shard; region_lane; routes; leg_base; lane_leg_rngs;
    arriving = Array.make (Array.length routes) Float.nan;
    crashed_at = Array.make n neg_infinity;
    network; regions; sites; directory; obs;
  }

let engine t = Des.Shard.engine t.shard 0
let shard t = Some t.shard
let lanes t = Des.Shard.lanes t.shard

let region_lane t region = t.region_lane.(Geonet.Region.index region)
let engine_of_region t region = Des.Shard.engine t.shard (region_lane t region)
let now t = Des.Shard.now t.shard

let run_until t ~until_ms = Des.Shard.run t.shard ~until_ms
let schedule_global t ~time_ms f = Des.Shard.schedule_global t.shard ~time_ms f

let network t = t.network
let n_sites t = Array.length t.sites
let site t i = t.sites.(i)
let sites t = t.sites

(* Registration writes the shared directory, so — like
   [Shard.schedule_global] — it is refused while lanes run a window.
   Globals run between windows, so registering from one is fine. *)
let check_between_windows t op =
  if Des.Shard.in_window t.shard then invalid_arg (op ^ ": called inside a window")

let check_entity_name op entity =
  if String.equal entity Protocol_driver.batch_channel then
    invalid_arg (op ^ ": the empty entity name is reserved")

let init_entity_shares t ~entity ~shares =
  let op = "Cluster.init_entity_shares" in
  check_between_windows t op;
  if Array.length shares <> Array.length t.sites then
    invalid_arg (op ^ ": one share per site required");
  if Array.exists (fun tokens -> tokens < 0) shares then
    invalid_arg (op ^ ": negative share");
  check_entity_name op entity;
  let eid =
    Entity_map.Directory.add t.directory entity ~maximum:(Array.fold_left ( + ) 0 shares)
  in
  Array.iteri (fun i tokens -> Site.init_entity t.sites.(i) ~eid ~tokens) shares

let init_entity t ~entity ~maximum =
  if maximum < 0 then invalid_arg "Cluster.init_entity: negative maximum";
  let sites = Array.length t.sites in
  init_entity_shares t ~entity
    ~shares:(Array.init sites (Entity_map.equal_share ~sites ~maximum))

(* Bulk fleet registration: the same equal split as [init_entity], but the
   entities start cold at every site (see {!Site.register_entities}), so
   a key is one directory entry — its name and its maximum — and no site
   holds anything for it until it touches it. All-or-nothing: a bad entry
   or a duplicate (within the batch or already registered) rolls the
   directory back before any site changes. Each name is hashed once,
   into the directory. *)
let register_entities t entities =
  let op = "Cluster.register_entities" in
  check_between_windows t op;
  let first_eid = Entity_map.Directory.length t.directory in
  (try
     List.iter
       (fun (entity, maximum) ->
         if maximum < 0 then invalid_arg (op ^ ": negative maximum");
         check_entity_name op entity;
         ignore (Entity_map.Directory.add t.directory entity ~maximum))
       entities
   with Invalid_argument _ as e ->
     Entity_map.Directory.truncate t.directory first_eid;
     raise e);
  let count = Entity_map.Directory.length t.directory - first_eid in
  Array.iter (fun site -> Site.register_entities site ~first_eid ~count) t.sites

let entity_count t = Entity_map.Directory.length t.directory

let hot_entities t =
  Array.fold_left (fun acc site -> acc + Site.hot_entities site) 0 t.sites

(* Nearest live site to a client region (by [Region.index]), app-manager
   failover included; -1 when every site is down. *)
let route t ri =
  let order = t.routes.(ri) in
  let rec first k =
    if k = Array.length order then -1
    else if Site.alive t.sites.(order.(k)) then order.(k)
    else first (k + 1)
  in
  first 0

(* A client leg's latency plus jitter; [rng] is the leg stream of the
   lane executing the draw. *)
let client_leg_ms t rng ~ri ~site_index =
  let base = t.leg_base.(ri).(site_index) in
  base +. Des.Rng.float rng (0.05 *. base)

let submit_to_site t ~site request ~reply = Site.submit t.sites.(site) request ~reply

(* Schedule a client leg, arriving at [time_ms], between the client's lane
   and the site's lane. A cross-lane leg always joins distinct regions, so
   it arrives at least the shard lookahead after the executing lane's
   clock — exactly the safety contract [Shard.schedule_cross] enforces.
   Same-lane legs (client co-located with the site, or homed to it as
   nearest hosted region) stay local. *)
let schedule_leg t ~from_lane ~to_lane ~time_ms f =
  if from_lane = to_lane then
    Des.Engine.schedule_at (Des.Shard.engine t.shard from_lane) ~time_ms f
  else Des.Shard.schedule_cross t.shard ~src:from_lane ~dst:to_lane ~time_ms f

let lane_now t lane = Des.Engine.now (Des.Shard.engine t.shard lane)

(* The site answers on its lane when it commits to [response]: the return
   draw is its, and the leg leaves when the response does ([at_ms] is
   never in the past). *)
let serve t ~ri ~site_index request ~reply =
  let client_lane = t.region_lane.(ri) in
  let site_lane = region_lane t t.regions.(site_index) in
  Site.submit t.sites.(site_index) request ~reply:(fun ~at_ms response ->
      let back = client_leg_ms t t.lane_leg_rngs.(site_lane) ~ri ~site_index in
      schedule_leg t ~from_lane:site_lane ~to_lane:client_lane ~time_ms:(at_ms +. back)
        (fun () -> reply response))

(* The site died while the request was in flight: [Unavailable] goes back
   over a leg as long as the one that came. *)
let unavailable_back t ~ri ~site_index ~there ~reply =
  let site_lane = region_lane t t.regions.(site_index) in
  schedule_leg t ~from_lane:site_lane ~to_lane:t.region_lane.(ri)
    ~time_ms:(lane_now t site_lane +. there) (fun () -> reply Types.Unavailable)

(* An outbound leg that arrives at [time_ms], [there] after it left. *)
let leg_to_site t ~ri ~site_index ~time_ms ~there request ~reply =
  let client_lane = t.region_lane.(ri) in
  let site_lane = region_lane t t.regions.(site_index) in
  schedule_leg t ~from_lane:client_lane ~to_lane:site_lane ~time_ms (fun () ->
      if Site.alive t.sites.(site_index) then serve t ~ri ~site_index request ~reply
      else unavailable_back t ~ri ~site_index ~there ~reply)

(* Route from region [ri] to the nearest live site and send the outbound
   leg, which left at [sent_ms]: now for a submit issued now, the issue
   time for a send that failed over at its arrival. The draw is the
   client lane's. A cross-lane leg lands no earlier than one lookahead
   from now, so it clears the shard horizon (a leg sent now always does:
   it spans two regions). *)
let route_and_send t ~ri ~sent_ms request ~reply =
  match route t ri with
  | -1 -> reply Types.Unavailable
  | site_index ->
      let client_lane = t.region_lane.(ri) in
      let there = client_leg_ms t t.lane_leg_rngs.(client_lane) ~ri ~site_index in
      let time_ms = sent_ms +. there in
      let time_ms =
        if region_lane t t.regions.(site_index) = client_lane then time_ms
        else Float.max time_ms (lane_now t client_lane +. Des.Shard.lookahead_ms t.shard)
      in
      leg_to_site t ~ri ~site_index ~time_ms ~there request ~reply

(* A send's arrival at its home site, issued at [issue_ms]. A home down
   since the issue or before had the app manager fail the send over at
   the issue; a home that died after it died with the request in
   flight. *)
let arrive_at_home t ~ri ~issue_ms request ~reply =
  let home = t.routes.(ri).(0) in
  if Site.alive t.sites.(home) then serve t ~ri ~site_index:home request ~reply
  else if t.crashed_at.(home) > issue_ms then
    unavailable_back t ~ri ~site_index:home
      ~there:(lane_now t t.region_lane.(ri) -. issue_ms)
      ~reply
  else route_and_send t ~ri ~sent_ms:issue_ms request ~reply

let submit t ~region request ~reply =
  let ri = Geonet.Region.index region in
  let issue_ms = t.arriving.(ri) in
  if Float.is_nan issue_ms then
    route_and_send t ~ri ~sent_ms:(lane_now t t.region_lane.(ri)) request ~reply
  else begin
    t.arriving.(ri) <- Float.nan;
    arrive_at_home t ~ri ~issue_ms request ~reply
  end

(* Executes on the client's lane: the outbound draw comes from it. *)
let arrival_ms t ~region ~issue_ms =
  let ri = Geonet.Region.index region in
  issue_ms
  +. client_leg_ms t t.lane_leg_rngs.(t.region_lane.(ri)) ~ri ~site_index:t.routes.(ri).(0)

let arrive t ~region ~issue_ms = t.arriving.(Geonet.Region.index region) <- issue_ms

(* Fault events land in lane -1: they are injected between windows (via
   barrier-aligned globals), so stamping them from the coordinating
   domain is race-free. *)
let flight_fault t detail =
  match Obs.Sink.flight t.obs with
  | None -> ()
  | Some a ->
      Obs.Flight_recorder.record a.Obs.Flight_recorder.recorder ~lane:(-1)
        ~ts:(now t) ~kind:Obs.Flight_recorder.Fault detail

let crash_site t i =
  flight_fault t (Printf.sprintf "crash site %d" i);
  t.crashed_at.(i) <- now t;
  Site.crash t.sites.(i)

let recover_site t i =
  flight_fault t (Printf.sprintf "recover site %d" i);
  Site.recover t.sites.(i)

let partition t groups =
  flight_fault t
    (Printf.sprintf "partition {%s}"
       (String.concat "|"
          (List.map
             (fun g -> String.concat "," (List.map string_of_int g))
             groups)));
  Geonet.Network.set_partition t.network groups

let heal t =
  flight_fault t "heal";
  Geonet.Network.clear_partition t.network

(* Arm the always-on incident layer on the cluster's port: every site
   starts recording and feeding the attachment's hot-key sketch. Before
   any lane writes, every lane's sketch slot exists, so parallel windows
   never grow a shared array. *)
let arm_flight t (attachment : Obs.Flight_recorder.attachment) =
  Option.iter
    (fun hot -> Obs.Heavy_hitters.Windowed.reserve hot ~lanes:(lanes t))
    attachment.Obs.Flight_recorder.hot;
  Obs.Sink.arm t.obs attachment

(* The audit's one pass over the sites for [eid], handing [k x] the
   key's tokens left and acquired, summed ([0] and [0] for the unknown eid
   [-1]). Each site is asked once ({!Entity_map.touched}: one bit read
   when the site never touched the key): a site that touched the key
   answers from its core; one that never did holds its equal share of the
   directory maximum ({!Entity_map.equal_share}) and has acquired
   nothing. Those shares are added after the loop: the maximum itself
   when every site is cold, else [maximum / n] per cold site plus one for
   each cold site below the remainder. Reads only — no core is
   materialised and, with a [k] that captures nothing, nothing is
   allocated. *)
let fold_ledger t eid x k =
  if eid < 0 then k x 0 0
  else begin
    let n = Array.length t.sites in
    let maximum = Entity_map.Directory.maximum t.directory eid in
    let low = maximum mod n in
    let left = ref 0 and acquired = ref 0 and cold = ref 0 and cold_low = ref 0 in
    for i = 0 to n - 1 do
      let core = Entity_map.touched (Site.arena t.sites.(i)) eid in
      if core.Entity_map.eid < 0 then begin
        incr cold;
        if i < low then incr cold_low
      end
      else begin
        left := !left + core.Entity_map.tokens_left;
        acquired := !acquired + core.Entity_map.acquired_net
      end
    done;
    let cold_left =
      if !cold = n then maximum
      else if !cold = 0 then 0
      else (!cold * (maximum / n)) + !cold_low
    in
    k x (!left + cold_left) !acquired
  end

let find t entity = Entity_map.Directory.find t.directory entity

let total_tokens_left t ~entity = fold_ledger t (find t entity) () (fun () left _ -> left)

let total_acquired t ~entity =
  fold_ledger t (find t entity) () (fun () _ acquired -> acquired)

let conservation maximum left acquired =
  if acquired < 0 then Error (Printf.sprintf "negative total acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d acquired > maximum %d" acquired maximum)
  else if left + acquired <> maximum then
    Error
      (Printf.sprintf "tokens not conserved: left %d + acquired %d <> maximum %d" left
         acquired maximum)
  else Ok ()

(* The audit resolves the name once and reads each site's index by eid. *)
let check_invariant t ~entity ~maximum =
  fold_ledger t (find t entity) maximum conservation

let pin_policy t ~entity policy =
  Array.iter (fun site -> Site.pin_policy site ~entity policy) t.sites

let total_redistributions t =
  Array.fold_left
    (fun acc site -> acc + (Site.stats site).Site.redistributions_led)
    0 t.sites

let aggregate_protocol_stats t =
  Array.fold_left
    (fun acc site -> Avantan_core.add_stats acc (Site.protocol_stats site))
    Avantan_core.zero_stats t.sites

let aggregate_site_stats t =
  Array.fold_left
    (fun (acc : Site.stats) site ->
      let s = Site.stats site in
      Site.
        {
          served_acquires = acc.served_acquires + s.served_acquires;
          served_releases = acc.served_releases + s.served_releases;
          served_reads = acc.served_reads + s.served_reads;
          rejected = acc.rejected + s.rejected;
          queued_peak = max acc.queued_peak s.queued_peak;
          redistributions_led = acc.redistributions_led + s.redistributions_led;
          redistributions_started = acc.redistributions_started + s.redistributions_started;
          redistributions_aborted = acc.redistributions_aborted + s.redistributions_aborted;
          proactive_triggers = acc.proactive_triggers + s.proactive_triggers;
          reactive_triggers = acc.reactive_triggers + s.reactive_triggers;
          borrows = acc.borrows + s.borrows;
          borrow_tokens = acc.borrow_tokens + s.borrow_tokens;
          mechanism_switches = acc.mechanism_switches + s.mechanism_switches;
        })
    Site.
      {
        served_acquires = 0;
        served_releases = 0;
        served_reads = 0;
        rejected = 0;
        queued_peak = 0;
        redistributions_led = 0;
        redistributions_started = 0;
        redistributions_aborted = 0;
        proactive_triggers = 0;
        reactive_triggers = 0;
        borrows = 0;
        borrow_tokens = 0;
        mechanism_switches = 0;
      }
    t.sites
