type run = {
  seed : int;
  cluster : Samya.Cluster.t;
  auditor : Chaos.Auditor.t;
  keys : (Samya.Types.entity * int) list;
  healed : bool;
}

let run ?(variant = Samya.Config.Majority) ?(protocol_batch = 8) ~seed () =
  let n_sites = 5 and n_entities = 40 and quota = 30 in
  let duration_ms = 45_000.0 in
  let key r = Printf.sprintf "key%02d" r in
  let schedule = Chaos.Nemesis.generate ~seed ~n_sites ~duration_ms in
  let root = Des.Rng.create (Int64.of_int seed) in
  let cluster_seed = Des.Rng.bits64 root in
  let config =
    {
      Samya.Config.default with
      variant;
      amnesia_on_crash = false;
      prediction_enabled = false;
      protocol_batch;
      entity_shards = 4;
      entity_capacity = n_entities;
    }
  in
  let all_regions = Array.of_list Geonet.Region.all in
  let regions =
    Array.init n_sites (fun i -> all_regions.(i mod Array.length all_regions))
  in
  let auditor = Chaos.Auditor.create ~variant ~n_sites () in
  let cluster =
    Samya.Cluster.create ~seed:cluster_seed ~config ~regions
      ~on_protocol_event:(fun ~site ~entity event ->
        Chaos.Auditor.on_protocol_event auditor ~site ~channel:entity event)
      ()
  in
  let keys = List.init n_entities (fun r -> (key r, quota)) in
  Samya.Cluster.register_entities cluster keys;
  let injector =
    Chaos.Injector.install
      ~schedule_at:(Samya.Cluster.schedule_global cluster)
      ~network:(Samya.Cluster.network cluster)
      ~crash:(Samya.Cluster.crash_site cluster)
      ~recover:(fun site ->
        Chaos.Auditor.note_recovery auditor ~site;
        Samya.Cluster.recover_site cluster site)
      schedule
  in
  (* One client per region, each acquiring and releasing across the
     whole key space — never releasing more of a key than it holds. *)
  Array.iter
    (fun region ->
      let rng = Des.Rng.split root in
      let engine = Samya.Cluster.engine_of_region cluster region in
      let held = Array.make n_entities 0 in
      let rec step () =
        Des.Engine.schedule engine
          ~delay_ms:(Des.Rng.exponential rng ~rate:(1.0 /. 40.0))
          (fun () ->
            if Des.Engine.now engine < duration_ms then begin
              let r = Des.Rng.int rng n_entities in
              (if held.(r) > 0 && Des.Rng.bool rng 0.4 then begin
                 let amount = 1 + Des.Rng.int rng (min 3 held.(r)) in
                 held.(r) <- held.(r) - amount;
                 Samya.Cluster.submit cluster ~region
                   (Samya.Types.Release { entity = key r; amount; deadline_ms = infinity })
                   ~reply:(fun _ -> ())
               end
               else
                 let amount = 1 + Des.Rng.int rng 4 in
                 Samya.Cluster.submit cluster ~region
                   (Samya.Types.Acquire { entity = key r; amount; deadline_ms = infinity })
                   ~reply:(fun response ->
                     if response = Samya.Types.Granted then
                       held.(r) <- held.(r) + amount));
              step ()
            end)
      in
      step ())
    regions;
  Samya.Cluster.run_until cluster
    ~until_ms:(duration_ms +. Float.max 240_000.0 (4.0 *. Samya.Site.anti_entropy_ms));
  {
    seed;
    cluster;
    auditor;
    keys;
    healed = Chaos.Injector.injected injector = Chaos.Injector.healed injector;
  }

let over_grants r =
  List.filter_map
    (fun (entity, maximum) ->
      match Samya.Cluster.check_invariant r.cluster ~entity ~maximum with
      | Ok () -> None
      | Error detail -> Some (entity, detail))
    r.keys

let parked r =
  Array.fold_left
    (fun acc site ->
      List.fold_left
        (fun acc (entity, _) -> acc + Samya.Site.queued site ~entity)
        acc r.keys)
    0 (Samya.Cluster.sites r.cluster)

let participating r =
  Array.to_list (Samya.Cluster.sites r.cluster)
  |> List.concat_map (fun site ->
         List.filter_map
           (fun (entity, _) ->
             if Samya.Site.participating site ~entity then Some (Samya.Site.id site, entity)
             else None)
           r.keys)
