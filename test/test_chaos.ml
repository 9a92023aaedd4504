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
  let value = Samya.Protocol.make_value ~origin:(ballot 3 1) ~entity:"VM" [] in
  let violations = Chaos.Auditor.check_logs [ (0, [ value; value ]) ] in
  check int "one violation" 1 (List.length violations);
  check Alcotest.string "duplicate-origin" "duplicate-origin"
    (List.hd violations).Chaos.Auditor.check

let auditor_flags_divergent_values () =
  let origin = ballot 3 1 in
  let entry tokens : Samya.Protocol.site_entry =
    { site = 0; tokens_left = tokens; tokens_wanted = 0 }
  in
  let a = Samya.Protocol.make_value ~origin ~entity:"VM" [ entry 10 ] in
  let b = Samya.Protocol.make_value ~origin ~entity:"VM" [ entry 20 ] in
  let violations = Chaos.Auditor.check_logs [ (0, [ a ]); (1, [ b ]) ] in
  check int "one violation" 1 (List.length violations);
  check Alcotest.string "value-consistency" "value-consistency"
    (List.hd violations).Chaos.Auditor.check;
  (* Equal values under one origin at two sites are the normal case. *)
  check int "agreement is clean" 0
    (List.length (Chaos.Auditor.check_logs [ (0, [ a ]); (1, [ a ]) ]))

(* The single-key soak at a given length (crash-amnesia, write-through
   durability) and the multi-key run of the batched property and the
   census (freeze model, [protocol_batch = 8] unless given). *)
let soak ?engine_jobs ~duration_ms ~variant ~seed () =
  Chaos.Soak.run ?engine_jobs
    ~config:{ Chaos.Soak.single_key_config with variant }
    ~workload:{ Chaos.Soak.single_key with duration_ms }
    ~seed ()

let multi_key ?engine_jobs ?(variant = Samya.Config.Majority) ?(protocol_batch = 8) ~seed
    () =
  Chaos.Soak.run ?engine_jobs
    ~config:{ Chaos.Soak.multi_key_config with variant; protocol_batch }
    ~workload:Chaos.Soak.multi_key ~seed ()

let soak_replays_exactly () =
  let run () = soak ~duration_ms:30_000.0 ~variant:Samya.Config.Star ~seed:7 () in
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
    soak ~duration_ms:30_000.0 ~engine_jobs ~variant:Samya.Config.Majority ~seed:5 ()
  in
  let r1 = run 1 in
  check bool "sharded soak passes the audit" true (Chaos.Soak.passed r1);
  let s1 = render r1 in
  check Alcotest.string "engine-jobs 2 byte-identical" s1 (render (run 2));
  check Alcotest.string "engine-jobs 4 byte-identical" s1 (render (run 4))

(* A recovery probe that gets no answer is reported, not dropped. Under
   the freeze model, seed 2 crashes site 0 from 55.4 s to 74.5 s: under
   Avantan[*] the site answers no direct acquire before the drain ends,
   under Avantan[(n+1)/2] it does. *)
let soak_reports_unanswered_probe () =
  let run variant =
    Chaos.Soak.run
      ~config:{ Chaos.Soak.single_key_config with variant; amnesia_on_crash = false }
      ~workload:Chaos.Soak.single_key ~seed:2 ()
  in
  let star = run Samya.Config.Star in
  check Alcotest.(list int) "star: site 0 unanswered" [ 0 ] star.unanswered_probes;
  check Alcotest.(list int) "star: no answered probe" []
    (List.map fst star.recovery_probes);
  let majority = run Samya.Config.Majority in
  check Alcotest.(list int) "majority: none unanswered" [] majority.unanswered_probes;
  check Alcotest.(list int) "majority: site 0 answered" [ 0 ]
    (List.map fst majority.recovery_probes)

(* The headline robustness property: across random nemesis seeds and both
   Avantan variants, a crash-amnesiac cluster with write-through
   durability finishes with a clean audit — tokens conserved (Equation 1),
   no origin applied twice, no divergent decision, monotone decided
   prefixes. *)
let soak_conserves_tokens variant name =
  QCheck.Test.make ~count:20 ~name
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let report = soak ~duration_ms:45_000.0 ~variant ~seed () in
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
      let report = multi_key ~seed () in
      if report.injected <> report.healed then
        QCheck.Test.fail_reportf "seed %d: unhealed faults" seed;
      match report.violations with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "seed %d: %a" seed Chaos.Auditor.pp_violation v)

(* The multi-entity run with one Avantan machine per entity: the live
   checks follow each (site, channel) on its own, so a site's per-entity
   machines are not read as one sequence of origins, and the full audit
   passes on every key. The seeds are the ones the over-grant race was
   first recorded on; none fails the quiescent audit today. *)
let unbatched_multi_entity_audits_clean () =
  List.iter
    (fun seed ->
      let report = multi_key ~protocol_batch:1 ~seed () in
      check bool "faults all healed" true (report.injected = report.healed);
      match report.violations with
      | [] -> ()
      | v :: _ -> Alcotest.failf "seed %d: %a" seed Chaos.Auditor.pp_violation v)
    [ 969687; 103947; 495605; 508120; 710863; 809845; 278165 ]

(* Today's over-grants, pinned: the seeds of 1000 + 7919·i (i < 1500)
   that fail the quiescent audit in both protocol modes, with exactly the
   overdraft each shows, and 694579, a batched-property seed that
   over-grants in batched mode only. The race that causes them (ROADMAP
   item 2) is open; when its fence lands these expectations flip to no
   failure. *)
let recorded_over_grants () =
  List.iter
    (fun (seed, protocol_batch, expected) ->
      let report = multi_key ~protocol_batch ~seed () in
      check bool "faults all healed" true (report.injected = report.healed);
      check
        Alcotest.(list (pair string string))
        (Printf.sprintf "seed %d, protocol_batch %d" seed protocol_batch)
        expected report.over_grants)
    [
      (2851840, 1, [ ("key39", "constraint violated: 32 acquired > maximum 30") ]);
      (2851840, 8, [ ("key39", "constraint violated: 31 acquired > maximum 30") ]);
      (8482249, 1, [ ("key18", "constraint violated: 31 acquired > maximum 30") ]);
      (8482249, 8, [ ("key21", "constraint violated: 31 acquired > maximum 30") ]);
      (694579, 1, []);
      (694579, 8, [ ("key13", "constraint violated: 31 acquired > maximum 30") ]);
    ]

(* The multi-key run on a region-sharded cluster: one worker or two, the
   same behaviour in both protocol modes and both variants. *)
let multi_key_engine_jobs_identical () =
  List.iter
    (fun (variant, protocol_batch, seed) ->
      let facts engine_jobs =
        let r = multi_key ~engine_jobs ~variant ~protocol_batch ~seed () in
        (r.over_grants, r.parked, r.participating, r.live_violations)
      in
      check bool
        (Printf.sprintf "seed %d, protocol_batch %d: engine-jobs 2 = 1" seed protocol_batch)
        true
        (facts 1 = facts 2))
    [
      (Samya.Config.Majority, 1, 2851840);
      (Samya.Config.Majority, 8, 2851840);
      (Samya.Config.Majority, 1, 694579);
      (Samya.Config.Majority, 8, 694579);
      (Samya.Config.Star, 1, 1000);
      (Samya.Config.Star, 8, 1000);
    ]

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
    Alcotest.test_case "soak: unanswered recovery probe reported" `Quick
      soak_reports_unanswered_probe;
    QCheck_alcotest.to_alcotest
      (soak_conserves_tokens Samya.Config.Majority
         "chaos soak: clean audit across seeds (Avantan[(n+1)/2])");
    QCheck_alcotest.to_alcotest
      (soak_conserves_tokens Samya.Config.Star
         "chaos soak: clean audit across seeds (Avantan[*])");
    QCheck_alcotest.to_alcotest multi_entity_conserves_under_chaos;
    Alcotest.test_case "chaos: unbatched multi-entity run audits clean" `Quick
      unbatched_multi_entity_audits_clean;
    Alcotest.test_case "chaos: recorded over-grants, both protocol modes" `Quick
      recorded_over_grants;
    Alcotest.test_case "chaos: multi-key run identical at engine-jobs 1 and 2" `Quick
      multi_key_engine_jobs_identical;
  ]
