let entity = "VM"

type report = {
  seed : int;
  variant : Samya.Config.variant;
  amnesia : bool;
  sync : Storage.Durable.sync_policy;
  schedule : Nemesis.schedule;
  injected : int;
  healed : int;
  granted : int;
  rejected : int;
  unavailable : int;
  redistributions : int;
  recovery_probes : (int * float) list;
  durable_syncs : int;
  duplicated : int;
  violations : Auditor.violation list;
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
  Printf.sprintf "samya_cli chaos --seed %d --variant %s%s%s" report.seed
    (variant_name report.variant)
    (if report.amnesia then "" else " --freeze")
    (match report.sync with
    | Storage.Durable.Sync_always -> ""
    | Storage.Durable.Sync_batched _ -> " --sync batched"
    | Storage.Durable.Sync_never -> " --sync never")

let pp_report fmt report =
  Format.fprintf fmt "@[<v>%a@," Nemesis.pp report.schedule;
  Format.fprintf fmt
    "variant=%s model=%s sync=%s  faults=%d/%d  granted=%d rejected=%d \
     unavailable=%d  redistributions=%d  syncs=%d dup-deliveries=%d@,"
    (variant_name report.variant)
    (if report.amnesia then "crash-amnesia" else "freeze")
    (sync_name report.sync) report.injected report.healed report.granted
    report.rejected report.unavailable report.redistributions report.durable_syncs
    report.duplicated;
  (match report.recovery_probes with
  | [] -> ()
  | probes ->
      Format.fprintf fmt "recovery-to-service:";
      List.iter
        (fun (site, ms) -> Format.fprintf fmt " site%d=%.0fms" site ms)
        probes;
      Format.fprintf fmt "@,");
  (match report.violations with
  | [] -> Format.fprintf fmt "auditor: OK@]"
  | violations ->
      Format.fprintf fmt "auditor: %d VIOLATION(S)@," (List.length violations);
      List.iter (fun v -> Format.fprintf fmt "  %a@," Auditor.pp_violation v) violations;
      Format.fprintf fmt "repro: %s@]" (repro_line report))

(* One client loop per region: acquires with bounded-outstanding releases,
   all randomness from a stream split off the seed so the whole run —
   workload, cluster, fault schedule — replays from one integer. Clients
   submit through the facade, against the entity it registered. *)
let spawn_client ~engine ~(facade : Facade.t) ~rng ~region ~duration_ms ~counts =
  let entity = facade.Facade.entity in
  let outstanding = ref 0 in
  let bump i = counts.(i) <- counts.(i) + 1 in
  let count = function
    | Samya.Types.Granted -> bump 0
    | Samya.Types.Rejected | Samya.Types.Rejected_deadline -> bump 1
    | Samya.Types.Unavailable -> bump 2
    | Samya.Types.Read_result _ -> ()
  in
  let rec step () =
    let delay = Des.Rng.exponential rng ~rate:(1.0 /. 120.0) in
    Des.Engine.schedule engine ~delay_ms:delay (fun () ->
        if Des.Engine.now engine < duration_ms then begin
          (if !outstanding > 0 && Des.Rng.bool rng 0.4 then begin
             (* Never release more than this client still holds, or the
                auditor would see client-caused negative acquisition. *)
             let amount = 1 + Des.Rng.int rng (min 3 !outstanding) in
             outstanding := !outstanding - amount;
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
                 if response = Samya.Types.Granted then
                   outstanding := !outstanding + amount));
          step ()
        end)
  in
  step ()

let run ?(n_sites = 5) ?(duration_ms = 120_000.0) ?(maximum = 5_000)
    ?(amnesia = true) ?(sync = Storage.Durable.Sync_always) ?(engine_jobs = 1)
    ~variant ~seed () =
  let schedule = Nemesis.generate ~seed ~n_sites ~duration_ms in
  let root = Des.Rng.create (Int64.of_int seed) in
  let cluster_seed = Des.Rng.bits64 root in
  let config =
    {
      Samya.Config.default with
      variant;
      amnesia_on_crash = amnesia;
      durability_sync = sync;
    }
  in
  let all_regions = Array.of_list Geonet.Region.all in
  let regions =
    Array.init n_sites (fun i -> all_regions.(i mod Array.length all_regions))
  in
  let auditor = Auditor.create ~variant ~n_sites () in
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
  Samya.Cluster.init_entity cluster ~entity ~maximum;
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
     acquire against the recovered site measures how long until it answers
     anything at all. Each probe writes only its own slot (probes on
     different lanes may answer on different domains); they are reported
     in reply order. *)
  let crashes = Array.of_list (Nemesis.crash_faults schedule) in
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
        ~facade ~rng ~region ~duration_ms ~counts:counts.(i))
    regions;
  (* Drain: traffic stops at [duration_ms] and every fault healed by 70%
     of it; the tail covers in-flight instances, recovery catch-up and a
     few anti-entropy rounds before the quiescent audit. The engine never
     runs dry on its own (gossip reschedules forever), hence the explicit
     horizon. *)
  let drain_ms = Float.max 240_000.0 (4.0 *. Samya.Site.anti_entropy_ms) in
  facade.Facade.run_until (duration_ms +. drain_ms);
  let violations =
    Auditor.check_cluster auditor cluster ~entity ~maximum ~quiescent:true
  in
  let durable_syncs =
    Array.fold_left
      (fun acc site -> acc + Samya.Site.durable_syncs site)
      0 (Samya.Cluster.sites cluster)
  in
  let total k = Array.fold_left (fun acc c -> acc + c.(k)) 0 counts in
  let recovery_probes =
    List.filter_map Fun.id (Array.to_list probe_replies)
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    |> List.map (fun (_, site, ms) -> (site, ms))
  in
  {
    seed;
    variant;
    amnesia;
    sync;
    schedule;
    injected = Injector.injected injector;
    healed = Injector.healed injector;
    granted = total 0;
    rejected = total 1;
    unavailable = total 2;
    redistributions = Samya.Cluster.total_redistributions cluster;
    recovery_probes;
    durable_syncs;
    duplicated = Geonet.Network.stats_duplicated network;
    violations;
  }
