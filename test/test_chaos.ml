(* Tests for the chaos engine: nemesis schedule determinism and shape,
   auditor log checks, and seed-sweep soak properties (token conservation
   and a clean audit under crash-amnesia recovery, both Avantan
   variants). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let nemesis_deterministic () =
  let a = Chaos.Nemesis.generate ~seed:42 ~n_sites:5 ~duration_ms:120_000.0 in
  let b = Chaos.Nemesis.generate ~seed:42 ~n_sites:5 ~duration_ms:120_000.0 in
  check bool "same seed, identical schedule" true (a = b);
  let c = Chaos.Nemesis.generate ~seed:43 ~n_sites:5 ~duration_ms:120_000.0 in
  check bool "different seed, different schedule" true (a.Chaos.Nemesis.faults <> c.Chaos.Nemesis.faults)

let nemesis_shape () =
  (* Over many seeds: faults ordered by injection time, every heal after
     its injection and inside the pre-quiescence window, every site index
     in range. *)
  for seed = 1 to 50 do
    let duration_ms = 120_000.0 in
    let schedule = Chaos.Nemesis.generate ~seed ~n_sites:5 ~duration_ms in
    check bool "at least three faults" true (List.length schedule.Chaos.Nemesis.faults >= 3);
    let previous = ref neg_infinity in
    List.iter
      (fun (fault : Chaos.Nemesis.fault) ->
        check bool "sorted by injection time" true (fault.at_ms >= !previous);
        previous := fault.at_ms;
        check bool "heals after injection" true (fault.heal_ms > fault.at_ms);
        check bool "heals before the drain window" true
          (fault.heal_ms <= 0.7 *. duration_ms);
        let site_ok s = s >= 0 && s < 5 in
        match fault.kind with
        | Chaos.Nemesis.Crash { site } -> check bool "crash site in range" true (site_ok site)
        | Chaos.Nemesis.One_way_cut { src; dst } ->
            check bool "cut endpoints" true (site_ok src && site_ok dst && src <> dst)
        | Chaos.Nemesis.Latency_spike { src; dst; extra_ms } ->
            check bool "spike endpoints" true (site_ok src && site_ok dst && src <> dst);
            check bool "spike positive" true (extra_ms > 0.0)
        | Chaos.Nemesis.Partition { groups } ->
            let members = List.concat groups in
            check bool "partition covers all sites" true
              (List.sort compare members = [ 0; 1; 2; 3; 4 ])
        | Chaos.Nemesis.Drop_surge { probability } | Chaos.Nemesis.Duplication { probability }
          ->
            check bool "probability in (0, 1]" true (probability > 0.0 && probability <= 1.0))
      schedule.Chaos.Nemesis.faults
  done

let nemesis_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "rejects one site" true
    (invalid (fun () -> Chaos.Nemesis.generate ~seed:1 ~n_sites:1 ~duration_ms:10_000.0));
  check bool "rejects non-positive duration" true
    (invalid (fun () -> Chaos.Nemesis.generate ~seed:1 ~n_sites:5 ~duration_ms:0.0))

let ballot num site = { Consensus.Ballot.num; site }

let auditor_flags_duplicate_origin () =
  let value = Samya.Protocol.make_value ~origin:(ballot 3 1) [] in
  let violations = Chaos.Auditor.check_logs [ (0, [ value; value ]) ] in
  check int "one violation" 1 (List.length violations);
  check Alcotest.string "duplicate-origin" "duplicate-origin"
    (List.hd violations).Chaos.Auditor.check

let auditor_flags_divergent_values () =
  let origin = ballot 3 1 in
  let entry tokens : Samya.Protocol.site_entry =
    { site = 0; tokens_left = tokens; tokens_wanted = 0 }
  in
  let a = Samya.Protocol.make_value ~origin [ entry 10 ] in
  let b = Samya.Protocol.make_value ~origin [ entry 20 ] in
  let violations = Chaos.Auditor.check_logs [ (0, [ a ]); (1, [ b ]) ] in
  check int "one violation" 1 (List.length violations);
  check Alcotest.string "value-consistency" "value-consistency"
    (List.hd violations).Chaos.Auditor.check;
  (* Equal values under one origin at two sites are the normal case. *)
  check int "agreement is clean" 0
    (List.length (Chaos.Auditor.check_logs [ (0, [ a ]); (1, [ a ]) ]))

let soak_replays_exactly () =
  let run () = Chaos.Soak.run ~duration_ms:30_000.0 ~variant:Samya.Config.Star ~seed:7 () in
  let a = run () and b = run () in
  let fingerprint (r : Chaos.Soak.report) =
    (r.granted, r.rejected, r.unavailable, r.redistributions, r.durable_syncs, r.duplicated)
  in
  check bool "same seed, same outcome" true (fingerprint a = fingerprint b);
  check bool "faults all healed" true (a.injected = a.healed);
  check Alcotest.string "repro line" "samya_cli chaos --seed 7 --variant star"
    (Chaos.Soak.repro_line a)

let soak_engine_jobs_sweep () =
  (* A region-sharded soak must report byte-identically at every worker
     count — one domain or four, same windows, same channel flush order,
     same report — and still pass the auditor. *)
  let render (r : Chaos.Soak.report) = Format.asprintf "%a" Chaos.Soak.pp_report r in
  let run engine_jobs =
    Chaos.Soak.run ~duration_ms:30_000.0 ~engine_jobs ~variant:Samya.Config.Majority
      ~seed:5 ()
  in
  let r1 = run 1 in
  check bool "sharded soak passes the audit" true (Chaos.Soak.passed r1);
  let s1 = render r1 in
  check Alcotest.string "engine-jobs 2 byte-identical" s1 (render (run 2));
  check Alcotest.string "engine-jobs 4 byte-identical" s1 (render (run 4))

(* The headline robustness property: across random nemesis seeds and both
   Avantan variants, a crash-amnesiac cluster with write-through
   durability finishes with a clean audit — tokens conserved (Equation 1),
   no origin applied twice, no divergent decision, monotone decided
   prefixes. *)
let soak_conserves_tokens variant name =
  QCheck.Test.make ~count:20 ~name
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let report = Chaos.Soak.run ~duration_ms:45_000.0 ~variant ~seed () in
      if not (Chaos.Soak.passed report) then
        QCheck.Test.fail_reportf "%s@." (Chaos.Soak.repro_line report)
      else true)

(* Per-entity token conservation under the chaos auditor: a multi-entity
   cluster with the batched site-level protocol, random cross-entity
   traffic and the full nemesis schedule must come out of the drain with
   every key's Equation 1 intact and clean decided logs. (Batching
   requires the freeze crash model: batched instances are not yet in the
   per-entity durable images.) *)
let multi_entity_conserves_under_chaos =
  QCheck.Test.make ~count:8 ~name:"chaos: per-entity conservation, batched protocol"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let n_sites = 5 and n_entities = 40 and quota = 30 in
      let duration_ms = 45_000.0 in
      let key r = Printf.sprintf "key%02d" r in
      let schedule = Chaos.Nemesis.generate ~seed ~n_sites ~duration_ms in
      let root = Des.Rng.create (Int64.of_int seed) in
      let cluster_seed = Des.Rng.bits64 root in
      let config =
        {
          Samya.Config.default with
          variant = Samya.Config.Majority;
          amnesia_on_crash = false;
          prediction_enabled = false;
          protocol_batch = 8;
          entity_shards = 4;
          entity_capacity = n_entities;
        }
      in
      let all_regions = Array.of_list Geonet.Region.all in
      let regions =
        Array.init n_sites (fun i -> all_regions.(i mod Array.length all_regions))
      in
      let auditor = Chaos.Auditor.create ~variant:config.Samya.Config.variant ~n_sites () in
      let cluster =
        Samya.Cluster.create ~seed:cluster_seed ~config ~regions
          ~on_protocol_event:(fun ~site ~entity:_ event ->
            Chaos.Auditor.on_protocol_event auditor ~site event)
          ()
      in
      Samya.Cluster.register_entities cluster
        (List.init n_entities (fun r -> (key r, quota)));
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
        ~until_ms:
          (duration_ms
          +. Float.max 240_000.0 (4.0 *. Samya.Site.anti_entropy_ms));
      if Chaos.Injector.injected injector <> Chaos.Injector.healed injector then
        QCheck.Test.fail_reportf "seed %d: unhealed faults" seed;
      List.iteri
        (fun r (entity, maximum) ->
          (* Live/log checks once (they are entity-independent); the
             quiescent Equation-1 audit for every key. *)
          let violations =
            if r = 0 then
              Chaos.Auditor.check_cluster auditor cluster ~entity ~maximum
                ~quiescent:true
            else
              match Samya.Cluster.check_invariant cluster ~entity ~maximum with
              | Ok () -> []
              | Error detail ->
                  [ { Chaos.Auditor.check = "conservation"; site = None; detail } ]
          in
          match violations with
          | [] -> ()
          | v :: _ ->
              QCheck.Test.fail_reportf "seed %d, %s: %a" seed entity
                Chaos.Auditor.pp_violation v)
        (List.init n_entities (fun r -> (key r, quota)));
      true)

let suite =
  [
    Alcotest.test_case "nemesis: deterministic per seed" `Quick nemesis_deterministic;
    Alcotest.test_case "nemesis: schedule shape" `Quick nemesis_shape;
    Alcotest.test_case "nemesis: parameter validation" `Quick nemesis_validation;
    Alcotest.test_case "auditor: duplicate origin" `Quick auditor_flags_duplicate_origin;
    Alcotest.test_case "auditor: divergent values" `Quick auditor_flags_divergent_values;
    Alcotest.test_case "soak: replays exactly" `Quick soak_replays_exactly;
    Alcotest.test_case "soak: engine-jobs sweep byte-identical" `Slow
      soak_engine_jobs_sweep;
    QCheck_alcotest.to_alcotest
      (soak_conserves_tokens Samya.Config.Majority
         "chaos soak: clean audit across seeds (Avantan[(n+1)/2])");
    QCheck_alcotest.to_alcotest
      (soak_conserves_tokens Samya.Config.Star
         "chaos soak: clean audit across seeds (Avantan[*])");
    QCheck_alcotest.to_alcotest multi_entity_conserves_under_chaos;
  ]
