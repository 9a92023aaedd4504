type workload = {
  keys : (Samya.Types.entity * int) list;
  hot : bool;
  mean_gap_ms : float;
  duration_ms : float;
  probes : bool;
}

let single_key =
  {
    keys = [ ("VM", 5_000) ];
    hot = true;
    mean_gap_ms = 120.0;
    duration_ms = 120_000.0;
    probes = true;
  }

let multi_key =
  {
    keys = List.init 40 (fun r -> (Printf.sprintf "key%02d" r, 30));
    hot = false;
    mean_gap_ms = 40.0;
    duration_ms = 45_000.0;
    probes = false;
  }

let single_key_config = { Samya.Config.default with amnesia_on_crash = true }

let multi_key_config =
  {
    Samya.Config.default with
    prediction_enabled = false;
    protocol_batch = 8;
    entity_shards = 4;
    entity_capacity = List.length multi_key.keys;
  }

type report = {
  seed : int;
  config : Samya.Config.t;
  schedule : Nemesis.schedule;
  injected : int;
  healed : int;
  granted : int;
  rejected : int;
  unavailable : int;
  redistributions : int;
  recovery_probes : (int * float) list;
  unanswered_probes : int list;
  durable_syncs : int;
  duplicated : int;
  violations : Auditor.violation list;
  over_grants : (Samya.Types.entity * string) list;
  parked : int;
  participating : (int * Samya.Types.entity) list;
  live_violations : int;
}

let passed report = report.violations = []

let variant_name = function
  | Samya.Config.Majority -> "majority"
  | Samya.Config.Star -> "star"

let sync_name = function
  | Storage.Durable.Sync_always -> "always"
  | Storage.Durable.Sync_batched n -> Printf.sprintf "batched:%d" n
  | Storage.Durable.Sync_never -> "never"

let repro_line report =
  let config = report.config in
  Printf.sprintf "samya_cli chaos --seed %d --variant %s%s%s" report.seed
    (variant_name config.variant)
    (if config.amnesia_on_crash then "" else " --freeze")
    (match config.durability_sync with
    | Storage.Durable.Sync_always -> ""
    | Storage.Durable.Sync_batched _ -> " --sync batched"
    | Storage.Durable.Sync_never -> " --sync never")

let pp_report fmt report =
  let config = report.config in
  Format.fprintf fmt "@[<v>%a@," Nemesis.pp report.schedule;
  Format.fprintf fmt
    "variant=%s model=%s sync=%s  faults=%d/%d  granted=%d rejected=%d \
     unavailable=%d  redistributions=%d  syncs=%d dup-deliveries=%d@,"
    (variant_name config.variant)
    (if config.amnesia_on_crash then "crash-amnesia" else "freeze")
    (sync_name config.durability_sync) report.injected report.healed report.granted
    report.rejected report.unavailable report.redistributions report.durable_syncs
    report.duplicated;
  if report.recovery_probes <> [] || report.unanswered_probes <> [] then begin
    Format.fprintf fmt "recovery-to-service:";
    List.iter
      (fun (site, ms) -> Format.fprintf fmt " site%d=%.0fms" site ms)
      report.recovery_probes;
    List.iter (Format.fprintf fmt " site%d=unanswered") report.unanswered_probes;
    Format.fprintf fmt "@,"
  end;
  (match report.violations with
  | [] -> Format.fprintf fmt "auditor: OK@]"
  | violations ->
      Format.fprintf fmt "auditor: %d VIOLATION(S)@," (List.length violations);
      List.iter (fun v -> Format.fprintf fmt "  %a@," Auditor.pp_violation v) violations;
      Format.fprintf fmt "repro: %s@]" (repro_line report))

(* One client loop per region: acquires with bounded-outstanding releases
   across the workload's keys, all randomness from a stream split off the
   seed so the whole run — workload, cluster, fault schedule — replays
   from one integer. A one-key workload draws no key: [Des.Rng.int]
   consumes a draw even for bound 1. *)
let spawn_client ~engine ~(facade : Facade.t) ~rng ~region ~keys ~workload ~counts =
  let held = Array.make (Array.length keys) 0 in
  let bump i = counts.(i) <- counts.(i) + 1 in
  let count = function
    | Samya.Types.Granted -> bump 0
    | Samya.Types.Rejected | Samya.Types.Rejected_deadline -> bump 1
    | Samya.Types.Unavailable -> bump 2
    | Samya.Types.Read_result _ -> ()
  in
  let rec step () =
    let delay = Des.Rng.exponential rng ~rate:(1.0 /. workload.mean_gap_ms) in
    Des.Engine.schedule engine ~delay_ms:delay (fun () ->
        if Des.Engine.now engine < workload.duration_ms then begin
          let r = if Array.length keys = 1 then 0 else Des.Rng.int rng (Array.length keys) in
          let entity = keys.(r) in
          (if held.(r) > 0 && Des.Rng.bool rng 0.4 then begin
             (* Never release more than this client still holds, or the
                auditor would see client-caused negative acquisition. *)
             let amount = 1 + Des.Rng.int rng (min 3 held.(r)) in
             held.(r) <- held.(r) - amount;
             facade.Facade.submit ~region
               (Samya.Types.release ~entity ~amount ())
               ~reply:count
           end
           else
             let amount = 1 + Des.Rng.int rng 4 in
             facade.Facade.submit ~region
               (Samya.Types.acquire ~entity ~amount ())
               ~reply:(fun response ->
                 count response;
                 if response = Samya.Types.Granted then held.(r) <- held.(r) + amount));
          step ()
        end)
  in
  step ()

let run ?(n_sites = 5) ?(engine_jobs = 1) ~config ~workload ~seed () =
  let duration_ms = workload.duration_ms in
  let schedule = Nemesis.generate ~seed ~n_sites ~duration_ms in
  let root = Des.Rng.create (Int64.of_int seed) in
  let cluster_seed = Des.Rng.bits64 root in
  let all_regions = Array.of_list Geonet.Region.all in
  let regions =
    Array.init n_sites (fun i -> all_regions.(i mod Array.length all_regions))
  in
  let auditor = Auditor.create ~variant:config.Samya.Config.variant ~n_sites () in
  let hooks =
    Facade.samya_hooks
      ~on_protocol_event:(fun ~site ~entity event ->
        Auditor.on_protocol_event auditor ~site ~channel:entity event)
      ()
  in
  let cluster =
    Samya.Cluster.create ~seed:cluster_seed ~config ~regions ~engine_jobs
      ~on_protocol_event:(Facade.protocol_event_hook hooks)
      ~obs:(Facade.obs_port hooks) ()
  in
  if workload.hot then
    List.iter
      (fun (entity, maximum) -> Samya.Cluster.init_entity cluster ~entity ~maximum)
      workload.keys
  else Samya.Cluster.register_entities cluster workload.keys;
  let names = List.map fst workload.keys in
  let keys = Array.of_list names and entity = List.hd names in
  (* Clients and the fault injector drive the cluster through the same
     facade record the experiment harness uses; only the quiescent audit
     and the recovery probes reach inside (the probes bypass routing on
     purpose — they must target the recovered site itself). *)
  let facade = Facade.of_samya_cluster ~hooks ~regions ~entity cluster in
  let network = Samya.Cluster.network cluster in
  let injector =
    Injector.install ~schedule_at:facade.Facade.schedule_global ~network
      ~crash:facade.Facade.crash_site
      ~recover:(fun site ->
        Auditor.note_recovery auditor ~site;
        facade.Facade.recover_site site)
      schedule
  in
  (* Recovery-to-service probes: right after each crash heals, one direct
     acquire of the first key against the recovered site measures how long
     until it answers anything at all. Each probe writes only its own slot
     (probes on different lanes may answer on different domains). Answered
     probes are reported in reply order, unanswered ones in crash order. *)
  let crashes =
    if workload.probes then Array.of_list (Nemesis.crash_faults schedule) else [||]
  in
  let probe_replies = Array.make (Array.length crashes) None in
  Array.iteri
    (fun i (site, _at_ms, heal_ms) ->
      (* [submit_to_site] calls straight into the site, so the probe must
         fire on the site's own lane; its reply is called there, with the
         time the answer leaves the site. *)
      let probe_engine = facade.Facade.sched_region regions.(site) in
      Des.Engine.schedule_at probe_engine ~time_ms:(heal_ms +. 1.0) (fun () ->
          let sent = Des.Engine.now probe_engine in
          Samya.Cluster.submit_to_site cluster ~site
            (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
            ~reply:(fun ~at_ms _ ->
              probe_replies.(i) <- Some (at_ms, site, at_ms -. sent))))
    crashes;
  (* Outcome counters per client region, summed after the run. *)
  let counts = Array.map (fun _ -> Array.make 3 0) regions in
  Array.iteri
    (fun i region ->
      let rng = Des.Rng.split root in
      spawn_client
        ~engine:(facade.Facade.sched_region region)
        ~facade ~rng ~region ~keys ~workload ~counts:counts.(i))
    regions;
  (* Drain: traffic stops at [duration_ms] and every fault healed by 70%
     of it; the tail covers in-flight instances, recovery catch-up and a
     few anti-entropy rounds before the quiescent audit. The engine never
     runs dry on its own (gossip reschedules forever), hence the explicit
     horizon. *)
  let drain_ms = Float.max 240_000.0 (4.0 *. Samya.Site.anti_entropy_ms) in
  facade.Facade.run_until (duration_ms +. drain_ms);
  let over_grants =
    List.filter_map
      (fun (entity, maximum) ->
        match Samya.Cluster.check_invariant cluster ~entity ~maximum with
        | Ok () -> None
        | Error detail -> Some (entity, detail))
      workload.keys
  in
  let violations = Auditor.check_cluster auditor cluster ~keys:workload.keys ~quiescent:true in
  let sites = Array.to_list (Samya.Cluster.sites cluster) in
  let sum f = List.fold_left (fun acc site -> acc + f site) 0 sites in
  let total k = Array.fold_left (fun acc c -> acc + c.(k)) 0 counts in
  let recovery_probes =
    List.filter_map Fun.id (Array.to_list probe_replies)
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    |> List.map (fun (_, site, ms) -> (site, ms))
  in
  let unanswered_probes =
    List.filteri (fun i _ -> Option.is_none probe_replies.(i)) (Array.to_list crashes)
    |> List.map (fun (site, _, _) -> site)
  in
  {
    seed;
    config;
    schedule;
    injected = Injector.injected injector;
    healed = Injector.healed injector;
    granted = total 0;
    rejected = total 1;
    unavailable = total 2;
    redistributions = Samya.Cluster.total_redistributions cluster;
    recovery_probes;
    unanswered_probes;
    durable_syncs = sum Samya.Site.durable_syncs;
    duplicated = Geonet.Network.stats_duplicated network;
    violations;
    over_grants;
    parked =
      sum (fun site ->
          List.fold_left (fun acc entity -> acc + Samya.Site.queued site ~entity) 0 names);
    participating =
      List.concat_map
        (fun site ->
          List.filter_map
            (fun entity ->
              if Samya.Site.participating site ~entity then Some (Samya.Site.id site, entity)
              else None)
            names)
        sites;
    live_violations = List.length (Auditor.live_violations auditor);
  }
