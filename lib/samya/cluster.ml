(* Every deployment runs on a region-sharded {!Des.Shard}: each site sits
   on its hosting region's lane (one lane when all sites share a region),
   and every lane has its own deterministic client-leg stream: leg jitter
   is drawn by whichever lane executes the leg (client lane outbound,
   site lane for the return), so the draw order — and therefore the whole
   run — does not depend on how many domains drain the windows.

   A served request costs two events: the outbound leg, which runs the
   site, and the return leg, which runs the client's reply. The site
   answers when it commits to a response and says when that response
   leaves ({!Types.reply}); the return jitter is drawn then, on the site
   lane, and the return leg is scheduled from the site's CPU finish. *)
type t = {
  shard : Des.Shard.t;
  region_lane : int array; (* lane per Region.index *)
  routes : int array array; (* per Region.index: sites by (one-way ms, id) *)
  leg_base : float array array; (* per Region.index, per site: leg before jitter *)
  lane_leg_rngs : Des.Rng.t array;
  network : Site.net_msg Geonet.Network.t;
  regions : Geonet.Region.t array;
  sites : Site.t array;
  directory : Entity_map.Directory.t;
      (* the one name -> eid map every site's arena indexes by; written
         only between windows, read concurrently by lanes inside them *)
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
  { shard; region_lane; routes; leg_base; lane_leg_rngs; network; regions; sites; directory;
    obs }

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
  let eid = Entity_map.Directory.add t.directory entity in
  Array.iteri (fun i tokens -> Site.init_entity t.sites.(i) ~eid ~tokens) shares

(* Site [i]'s share of [maximum] split equally over [n] sites, the
   remainder to the lowest ids. *)
let equal_share ~n ~maximum i = (maximum / n) + if i < maximum mod n then 1 else 0

let init_entity t ~entity ~maximum =
  if maximum < 0 then invalid_arg "Cluster.init_entity: negative maximum";
  let n = Array.length t.sites in
  init_entity_shares t ~entity ~shares:(Array.init n (equal_share ~n ~maximum))

(* Bulk fleet registration: the same equal split as [init_entity], but the
   entities start cold at every site (see {!Site.register_entities}).
   All-or-nothing: a bad entry or a duplicate (within the batch or already
   registered) rolls the directory back before any site changes. Each
   name is hashed once, into the directory; one more pass over the batch
   writes every site's share by eid, in list order. *)
let register_entities t entities =
  let op = "Cluster.register_entities" in
  check_between_windows t op;
  let first_eid = Entity_map.Directory.length t.directory in
  (try
     List.iter
       (fun (entity, maximum) ->
         if maximum < 0 then invalid_arg (op ^ ": negative maximum");
         check_entity_name op entity;
         ignore (Entity_map.Directory.add t.directory entity))
       entities
   with Invalid_argument _ as e ->
     Entity_map.Directory.truncate t.directory first_eid;
     raise e);
  let count = Entity_map.Directory.length t.directory - first_eid in
  let arenas = Array.map Site.arena t.sites in
  let n = Array.length arenas in
  Array.iter (fun arena -> Entity_map.append arena ~first_eid ~count) arenas;
  List.iteri
    (fun k (_, maximum) ->
      for i = 0 to n - 1 do
        Entity_map.set_share arenas.(i) (first_eid + k) (equal_share ~n ~maximum i)
      done)
    entities;
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

let submit t ~region request ~reply =
  let ri = Geonet.Region.index region in
  match route t ri with
  | -1 -> reply Types.Unavailable
  | site_index ->
      let client_lane = t.region_lane.(ri) in
      let site_lane = region_lane t t.regions.(site_index) in
      (* Executes on the client's lane: the outbound draw comes from it. *)
      let there = client_leg_ms t t.lane_leg_rngs.(client_lane) ~ri ~site_index in
      schedule_leg t ~from_lane:client_lane ~to_lane:site_lane
        ~time_ms:(lane_now t client_lane +. there) (fun () ->
          let target = t.sites.(site_index) in
          if not (Site.alive target) then
            (* The site died while the request was in flight. *)
            schedule_leg t ~from_lane:site_lane ~to_lane:client_lane
              ~time_ms:(lane_now t site_lane +. there) (fun () -> reply Types.Unavailable)
          else
            Site.submit target request ~reply:(fun ~at_ms response ->
                (* Executes on the site's lane when the site commits to
                   [response]: the return draw is its, and the leg leaves
                   when the response does ([at_ms] is never in the past). *)
                let back = client_leg_ms t t.lane_leg_rngs.(site_lane) ~ri ~site_index in
                schedule_leg t ~from_lane:site_lane ~to_lane:client_lane
                  ~time_ms:(at_ms +. back) (fun () -> reply response)))

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

(* One ledger field of [eid] summed over every site ([0] for the unknown
   eid [-1]): every site's arena holds every directory eid. Reads only —
   no core is materialised and nothing is allocated. *)
let total t eid field =
  let sum = ref 0 in
  if eid >= 0 then
    for i = 0 to Array.length t.sites - 1 do
      sum := !sum + field (Site.arena t.sites.(i)) eid
    done;
  !sum

let total_tokens_left t ~entity =
  total t (Entity_map.Directory.find t.directory entity) Entity_map.tokens_left

let total_acquired t ~entity =
  total t (Entity_map.Directory.find t.directory entity) Entity_map.acquired_net

(* The audit resolves the name once and reads each site's ledger by eid. *)
let check_invariant t ~entity ~maximum =
  let eid = Entity_map.Directory.find t.directory entity in
  let left = total t eid Entity_map.tokens_left
  and acquired = total t eid Entity_map.acquired_net in
  if acquired < 0 then Error (Printf.sprintf "negative total acquisition: %d" acquired)
  else if acquired > maximum then
    Error (Printf.sprintf "constraint violated: %d acquired > maximum %d" acquired maximum)
  else if left + acquired <> maximum then
    Error
      (Printf.sprintf "tokens not conserved: left %d + acquired %d <> maximum %d" left
         acquired maximum)
  else Ok ()

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
