(* Tests for the Samya core: protocol types, demand tracking, sites,
   clusters, both Avantan variants, queueing, ablations, reads, failures,
   and the Equation-1 invariant under randomized schedules. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entity = "VM"

let regions () = Array.of_list Geonet.Region.default_five

let make_cluster ?(variant = Samya.Config.Majority) ?(config_f = fun c -> c) ?(seed = 42L)
    ?(maximum = 5_000) ?drop () =
  let config = config_f { Samya.Config.default with variant } in
  let cluster =
    Samya.Cluster.create ~seed ~config ~regions:(regions ()) ?drop_probability:drop ()
  in
  Samya.Cluster.init_entity cluster ~entity ~maximum;
  cluster

(* Client work is scheduled on the client region's lane. *)
let submit_at cluster ~time_ms ~region request callback =
  Des.Engine.schedule_at
    (Samya.Cluster.engine_of_region cluster region)
    ~time_ms
    (fun () -> Samya.Cluster.submit cluster ~region request ~reply:callback)

let drain ?(extra = 120_000.0) cluster =
  Samya.Cluster.run_until cluster ~until_ms:(Samya.Cluster.now cluster +. extra)

(* ------------------------------------------------------------------ *)
(* Protocol helpers *)

let protocol_value_helpers () =
  let open Samya.Protocol in
  let value =
    make_value
      ~origin:{ Consensus.Ballot.num = 3; site = 1 }
      [
        { site = 2; tokens_left = 5; tokens_wanted = 0 };
        { site = 0; tokens_left = 1; tokens_wanted = 4 };
      ]
  in
  check (Alcotest.list int) "participants sorted" [ 0; 2 ] (participants value);
  check bool "membership" true (mem_site value 0);
  check bool "non-member" false (mem_site value 1);
  check bool "self equal" true (value_equal value value)

(* ------------------------------------------------------------------ *)
(* Demand tracker *)

let demand_tracker_epochs () =
  let engine = Des.Engine.create () in
  let tracker = Samya.Demand_tracker.create ~engine ~epoch_ms:1_000.0 ~capacity:8 in
  Des.Engine.schedule_at engine ~time_ms:100.0 (fun () ->
      Samya.Demand_tracker.record tracker ~amount:5);
  Des.Engine.schedule_at engine ~time_ms:200.0 (fun () ->
      Samya.Demand_tracker.record tracker ~amount:(-2));
  Des.Engine.schedule_at engine ~time_ms:1_500.0 (fun () ->
      Samya.Demand_tracker.record tracker ~amount:7);
  Des.Engine.schedule_at engine ~time_ms:3_500.0 (fun () ->
      Samya.Demand_tracker.record tracker ~amount:1);
  Des.Engine.run engine;
  let history = Samya.Demand_tracker.history tracker in
  (* Epochs 0..2 completed: net 3, 7, 0 (gap epoch). *)
  check (Alcotest.array (Alcotest.float 1e-9)) "net history" [| 3.0; 7.0; 0.0 |] history;
  let peaks = Samya.Demand_tracker.peak_history tracker in
  check (Alcotest.float 1e-9) "peak of epoch 0" 5.0 peaks.(0);
  check (Alcotest.float 1e-9) "current epoch demand" 1.0
    (Samya.Demand_tracker.current_epoch_demand tracker)

let demand_tracker_capacity () =
  let engine = Des.Engine.create () in
  let tracker = Samya.Demand_tracker.create ~engine ~epoch_ms:10.0 ~capacity:4 in
  for i = 0 to 9 do
    Des.Engine.schedule_at engine ~time_ms:(float_of_int i *. 10.0) (fun () ->
        Samya.Demand_tracker.record tracker ~amount:i)
  done;
  Des.Engine.run engine;
  let history = Samya.Demand_tracker.history tracker in
  check int "capacity bound" 4 (Array.length history);
  check (Alcotest.float 1e-9) "keeps the newest" 8.0 history.(3)

(* ------------------------------------------------------------------ *)
(* Serving basics *)

let acquire_release_roundtrip () =
  let cluster = make_cluster () in
  let responses = ref [] in
  let remember tag response = responses := (tag, response) :: !responses in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 10; deadline_ms = infinity })
    (remember "acquire");
  submit_at cluster ~time_ms:100.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Release { entity; amount = 4; deadline_ms = infinity })
    (remember "release");
  drain cluster;
  check int "both replied" 2 (List.length !responses);
  List.iter
    (fun (_, response) ->
      check bool "granted" true (response = Samya.Types.Granted))
    !responses;
  check int "net acquired" 6 (Samya.Cluster.total_acquired cluster ~entity);
  check int "local pool reduced" 994
    (Samya.Site.tokens_left (Samya.Cluster.site cluster 0) ~entity)

let invalid_amount_rejected () =
  let cluster = make_cluster () in
  let response = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 0; deadline_ms = infinity })
    (fun r -> response := Some r);
  drain cluster;
  check bool "rejected" true (!response = Some Samya.Types.Rejected)

let unknown_entity_rejected () =
  let cluster = make_cluster () in
  let response = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity = "nope"; amount = 1; deadline_ms = infinity })
    (fun r -> response := Some r);
  drain cluster;
  check bool "rejected" true (!response = Some Samya.Types.Rejected)

let routed_to_nearest_site () =
  let cluster = make_cluster () in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Asia_east2
    (Samya.Types.Acquire { entity; amount = 3; deadline_ms = infinity })
    ignore;
  drain cluster;
  check int "asia site served it" 3
    (Samya.Site.acquired_net (Samya.Cluster.site cluster 1) ~entity)

let read_returns_global_snapshot () =
  let cluster = make_cluster () in
  let result = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 100; deadline_ms = infinity })
    ignore;
  submit_at cluster ~time_ms:5_000.0 ~region:Geonet.Region.Europe_west2
    (Samya.Types.Read { entity; deadline_ms = infinity })
    (fun r -> result := Some r);
  drain cluster;
  match !result with
  | Some (Samya.Types.Read_result { tokens_available }) ->
      check int "global availability" 4_900 tokens_available
  | _ -> Alcotest.fail "no read result"

(* ------------------------------------------------------------------ *)
(* Redistribution behaviour *)

let burst cluster ~region ~start ~count ~gap grant_counter reject_counter =
  for i = 0 to count - 1 do
    submit_at cluster ~time_ms:(start +. (float_of_int i *. gap)) ~region
      (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
      (function
        | Samya.Types.Granted -> incr grant_counter
        | Samya.Types.Rejected -> incr reject_counter
        | _ -> ())
  done

let redistribution_exceeds_local_share variant () =
  let cluster = make_cluster ~variant () in
  let granted = ref 0 and rejected = ref 0 in
  (* 1800 > the local share of 1000: needs redistribution to succeed. *)
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_800 ~gap:5.0 granted
    rejected;
  drain ~extra:200_000.0 cluster;
  check bool
    (Printf.sprintf "most granted via redistribution (granted=%d)" !granted)
    true
    (!granted > 1_500);
  check bool "redistributions happened" true (Samya.Cluster.total_redistributions cluster > 0);
  check bool "invariant" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

let constraint_is_global variant () =
  (* Demand 7000 against M = 5000: exactly 5000 granted in total. *)
  let cluster = make_cluster ~variant () in
  let granted = ref 0 and rejected = ref 0 in
  Array.iter
    (fun region ->
      burst cluster ~region ~start:0.0 ~count:1_400 ~gap:10.0 granted rejected)
    (regions ());
  drain ~extra:400_000.0 cluster;
  check bool
    (Printf.sprintf "never exceeds the maximum (granted=%d)" !granted)
    true (!granted <= 5_000);
  check bool "most of the pool is used" true (!granted > 4_500);
  check bool "rest rejected or queued" true (!rejected > 0);
  check bool "invariant" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

let no_redistribution_rejects_locally () =
  let cluster =
    make_cluster
      ~config_f:(fun c -> { c with Samya.Config.redistribution_enabled = false })
      ()
  in
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_500 ~gap:2.0 granted
    rejected;
  drain cluster;
  check int "exactly the local share granted" 1_000 !granted;
  check int "the rest rejected" 500 !rejected;
  check int "no redistributions" 0 (Samya.Cluster.total_redistributions cluster)

let no_constraint_grants_everything () =
  let cluster =
    make_cluster ~config_f:(fun c -> { c with Samya.Config.enforce_constraint = false }) ()
  in
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:8_000 ~gap:1.0 granted
    rejected;
  drain cluster;
  check int "all granted" 8_000 !granted;
  check int "none rejected" 0 !rejected

let no_prediction_is_reactive_only () =
  let cluster =
    make_cluster ~config_f:(fun c -> { c with Samya.Config.prediction_enabled = false }) ()
  in
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_500 ~gap:5.0 granted
    rejected;
  drain ~extra:200_000.0 cluster;
  let stats = Samya.Cluster.aggregate_site_stats cluster in
  check int "no proactive triggers" 0 stats.Samya.Site.proactive_triggers;
  check bool "reactive triggers fired" true (stats.Samya.Site.reactive_triggers > 0)

let requests_queue_during_redistribution () =
  (* Reactive-only so the redistribution happens exactly at exhaustion. *)
  let cluster =
    make_cluster ~config_f:(fun c -> { c with Samya.Config.prediction_enabled = false }) ()
  in
  let engine = Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1 in
  (* Exhaust site 0 so the next acquire triggers a reactive instance. *)
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 1_000; deadline_ms = infinity })
    ignore;
  let reply_time = ref nan in
  submit_at cluster ~time_ms:1_000.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 10; deadline_ms = infinity })
    (fun _ -> reply_time := Des.Engine.now engine);
  drain cluster;
  (* The reply had to wait for a cross-region protocol round, far longer
     than the ~2 ms local path. *)
  check bool
    (Printf.sprintf "queued behind Avantan (%.1f ms)" (!reply_time -. 1_000.0))
    true
    (!reply_time -. 1_000.0 > 50.0)

(* ------------------------------------------------------------------ *)
(* Failures *)

let aborts_when_majority_unreachable () =
  let cluster = make_cluster () in
  (* Cut site 0 off with one peer only: a fresh leader cannot assemble a
     majority, aborts, and serves/rejects locally (§4.3.1). *)
  Samya.Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_200 ~gap:5.0 granted
    rejected;
  drain ~extra:300_000.0 cluster;
  check int "local share still served" 1_000 !granted;
  check bool "excess rejected after aborts" true (!rejected > 0);
  let stats = Samya.Cluster.aggregate_site_stats cluster in
  check bool "instances aborted" true (stats.Samya.Site.redistributions_aborted > 0)

let star_redistributes_in_minority_partition () =
  let cluster = make_cluster ~variant:Samya.Config.Star () in
  Samya.Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  let granted = ref 0 and rejected = ref 0 in
  (* 1500 > 1000 local: Avantan[*] can pull site 1's tokens despite being
     in a 2-node minority. *)
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_500 ~gap:5.0 granted
    rejected;
  drain ~extra:300_000.0 cluster;
  check bool (Printf.sprintf "served beyond local share (%d)" !granted) true
    (!granted > 1_200);
  check bool "invariant" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

let crashed_site_fails_over () =
  let cluster = make_cluster () in
  Samya.Cluster.crash_site cluster 0;
  let served_by = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 5; deadline_ms = infinity })
    (fun response ->
      check bool "granted elsewhere" true (response = Samya.Types.Granted);
      served_by := Some ());
  drain cluster;
  check bool "request served" true (!served_by <> None);
  check int "crashed site untouched" 1_000
    (Samya.Site.tokens_left (Samya.Cluster.site cluster 0) ~entity);
  (* The app manager failed over to some other site. *)
  let total_elsewhere =
    List.fold_left
      (fun acc i -> acc + Samya.Site.acquired_net (Samya.Cluster.site cluster i) ~entity)
      0 [ 1; 2; 3; 4 ]
  in
  check int "served by a live site" 5 total_elsewhere

let all_sites_down_unavailable () =
  let cluster = make_cluster () in
  for i = 0 to 4 do
    Samya.Cluster.crash_site cluster i
  done;
  let response = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
    (fun r -> response := Some r);
  drain cluster;
  check bool "unavailable" true (!response = Some Samya.Types.Unavailable)

let recovery_restores_service () =
  let cluster = make_cluster () in
  Samya.Cluster.crash_site cluster 0;
  Samya.Cluster.recover_site cluster 0;
  let response = ref None in
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
    (fun r -> response := Some r);
  drain cluster;
  check bool "granted after recovery" true (!response = Some Samya.Types.Granted);
  check int "served locally again" 1
    (Samya.Site.acquired_net (Samya.Cluster.site cluster 0) ~entity)

(* ------------------------------------------------------------------ *)
(* Decided-log bounding *)

let decided_log_stays_bounded () =
  (* Retention 2 while many instances decide: the recovery log must stay
     capped and token conservation must survive the dropped history. *)
  let cluster =
    make_cluster
      ~config_f:(fun c -> { c with Samya.Config.decided_log_retention = 2 })
      ()
  in
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_800 ~gap:5.0 granted
    rejected;
  drain ~extra:200_000.0 cluster;
  check bool "several instances decided" true
    (Samya.Cluster.total_redistributions cluster > 1);
  for i = 0 to 4 do
    let len =
      Samya.Site.decided_log_length (Samya.Cluster.site cluster i) ~entity
    in
    check bool (Printf.sprintf "site %d log capped (%d)" i len) true (len <= 2)
  done;
  check bool "invariant" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

(* ------------------------------------------------------------------ *)
(* Single-region deployment: a one-lane shard *)

let single_region_cluster_conserves () =
  (* Every site in one region: the shard degenerates to one lane, which
     carries the sites, the local clients and the clients of a foreign
     region alike. A burst past the local share forces redistributions;
     tokens must be conserved and the outcome must not depend on the
     worker-domain count. *)
  let run engine_jobs =
    let regions = Array.make 3 Geonet.Region.Us_west1 in
    let cluster =
      Samya.Cluster.create ~seed:42L ~engine_jobs ~config:Samya.Config.default ~regions
        ()
    in
    Samya.Cluster.init_entity cluster ~entity ~maximum:1_500;
    check int "one lane" 1 (Samya.Cluster.lanes cluster);
    let granted = ref 0 and rejected = ref 0 in
    burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_200 ~gap:5.0 granted
      rejected;
    burst cluster ~region:Geonet.Region.Europe_west2 ~start:2.5 ~count:600 ~gap:10.0
      granted rejected;
    drain ~extra:200_000.0 cluster;
    check bool "invariant" true
      (Samya.Cluster.check_invariant cluster ~entity ~maximum:1_500 = Ok ());
    check bool "served beyond one site's share" true (!granted > 500);
    check int "every request answered" 1_800 (!granted + !rejected);
    Printf.sprintf "granted=%d rejected=%d redistributions=%d left=[%s]" !granted
      !rejected
      (Samya.Cluster.total_redistributions cluster)
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun site -> string_of_int (Samya.Site.tokens_left site ~entity))
               (Samya.Cluster.sites cluster))))
  in
  let one = run 1 in
  check Alcotest.string "engine-jobs 4 identical" one (run 4)

(* ------------------------------------------------------------------ *)
(* Protocol-event hook *)

let event_hook_observes_protocol () =
  (* The structured on_event feed must agree with the unified stats: what
     the sites count is exactly what an observer sees, with no
     printf-scraping. *)
  let started = ref 0 and decided = ref 0 and aborted = ref 0 and joined = ref 0 in
  let config = { Samya.Config.default with Samya.Config.variant = Samya.Config.Majority } in
  let cluster =
    Samya.Cluster.create ~seed:42L ~config ~regions:(regions ())
      ~on_protocol_event:(fun ~site ~entity:e event ->
        check bool "site id in range" true (site >= 0 && site < 5);
        check bool "known entity" true (e = entity);
        match event with
        | Samya.Avantan_core.Election_started _ -> incr started
        | Samya.Avantan_core.Election_joined _ -> incr joined
        | Samya.Avantan_core.Decided _ -> incr decided
        | Samya.Avantan_core.Instance_aborted _ -> incr aborted
        | _ -> ())
      ()
  in
  Samya.Cluster.init_entity cluster ~entity ~maximum:5_000;
  let granted = ref 0 and rejected = ref 0 in
  burst cluster ~region:Geonet.Region.Us_west1 ~start:0.0 ~count:1_800 ~gap:5.0 granted
    rejected;
  drain ~extra:200_000.0 cluster;
  let proto = Samya.Cluster.aggregate_protocol_stats cluster in
  check bool "elections observed" true (!started > 0);
  check bool "cohort joins observed" true (!joined > 0);
  check int "election events = led_started" proto.Samya.Avantan_core.led_started !started;
  check int "decided events = decisions applied"
    proto.Samya.Avantan_core.decisions_applied !decided;
  check int "cohort joins = participations" proto.Samya.Avantan_core.participated !joined

(* ------------------------------------------------------------------ *)
(* Randomized invariants (Theorems 1 & 2, operationally) *)

let random_schedule_invariant variant ~drop ~crash ?(part = false)
    ?(config_f = fun c -> c) (seed, ops) =
  let maximum = 2_000 in
  let cluster =
    make_cluster ~variant ~seed:(Int64.of_int (seed + 1)) ~maximum ~config_f ?drop ()
  in
  let rng = Des.Rng.create (Int64.of_int (seed * 31)) in
  let outstanding = ref 0 in
  List.iteri
    (fun i op ->
      let time_ms = float_of_int i *. Des.Rng.float rng 120.0 in
      let region = Des.Rng.pick rng (regions ()) in
      match op mod 3 with
      | 0 | 1 ->
          let amount = 1 + (op mod 40) in
          submit_at cluster ~time_ms ~region
            (Samya.Types.Acquire { entity; amount; deadline_ms = infinity })
            (function Samya.Types.Granted -> incr outstanding | _ -> ())
      | _ ->
          submit_at cluster ~time_ms ~region (Samya.Types.Read { entity; deadline_ms = infinity }) ignore)
    ops;
  (if crash then
     Samya.Cluster.schedule_global cluster ~time_ms:500.0 (fun () ->
         Samya.Cluster.crash_site cluster 4));
  (if part then
     Samya.Cluster.schedule_global cluster ~time_ms:800.0 (fun () ->
         Samya.Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3; 4 ] ]));
  (* Heal loss and partitions before quiescence so retry loops can finish;
     a crashed site recovers (the paper assumes sites do not crash
     indefinitely) and catches up on missed decisions before the
     conservation check. *)
  Samya.Cluster.run_until cluster ~until_ms:60_000.0;
  Geonet.Network.set_drop_probability (Samya.Cluster.network cluster) 0.0;
  (if part then Samya.Cluster.heal cluster);
  (if crash then Samya.Cluster.recover_site cluster 4);
  Samya.Cluster.run_until cluster ~until_ms:600_000.0;
  match Samya.Cluster.check_invariant cluster ~entity ~maximum with
  | Ok () -> true
  | Error e -> QCheck.Test.fail_reportf "invariant: %s" e

let arbitrary_schedule =
  QCheck.make
    ~print:(fun (seed, ops) -> Printf.sprintf "seed=%d ops=%d" seed (List.length ops))
    QCheck.Gen.(pair (int_bound 10_000) (list_size (int_range 10 120) (int_bound 1_000)))

let invariant_majority =
  QCheck.Test.make ~count:25 ~name:"Equation 1 holds under random schedules (majority)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Majority ~drop:None ~crash:false)

let invariant_star =
  QCheck.Test.make ~count:25 ~name:"Equation 1 holds under random schedules (star)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Star ~drop:None ~crash:false)

let invariant_majority_lossy =
  QCheck.Test.make ~count:15 ~name:"Equation 1 holds under 5% message loss (majority)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Majority ~drop:(Some 0.05) ~crash:false)

let invariant_majority_crash =
  QCheck.Test.make ~count:15 ~name:"Equation 1 holds with a crashed site (majority)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Majority ~drop:None ~crash:true)

(* The unified core must keep both instantiations token-conserving under
   the same chaos: loss and crashes for the star variant too, and a 2-3
   partition window for both. *)
let invariant_star_lossy =
  QCheck.Test.make ~count:15 ~name:"Equation 1 holds under 5% message loss (star)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Star ~drop:(Some 0.05) ~crash:false)

let invariant_star_crash =
  QCheck.Test.make ~count:15 ~name:"Equation 1 holds with a crashed site (star)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Star ~drop:None ~crash:true)

let invariant_majority_partition =
  QCheck.Test.make ~count:10 ~name:"Equation 1 holds across a partition (majority)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Majority ~drop:None ~crash:false ~part:true)

let invariant_star_partition =
  QCheck.Test.make ~count:10 ~name:"Equation 1 holds across a partition (star)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Star ~drop:None ~crash:false ~part:true)

(* Recovery must replay correctly when the peers only retain a handful of
   decided values: loss + crash with decided_log_retention = 4. *)
let invariant_small_log_cap =
  QCheck.Test.make ~count:10
    ~name:"recovery replays within a small decided-log cap (majority)"
    arbitrary_schedule
    (random_schedule_invariant Samya.Config.Majority ~drop:(Some 0.05) ~crash:true
       ~config_f:(fun c -> { c with Samya.Config.decided_log_retention = 4 }))

(* ------------------------------------------------------------------ *)
(* The sharded entity arena (the multi-entity core).                    *)

let entity_map_registration () =
  let map : unit Samya.Entity_map.t =
    Samya.Entity_map.create ~shards:4 ~capacity:8 ()
  in
  for r = 0 to 99 do
    let core =
      Samya.Entity_map.register map ~entity:(Printf.sprintf "e%02d" r) ~tokens:r
    in
    check int "dense eid in registration order" r core.Samya.Entity_map.eid
  done;
  check int "length" 100 (Samya.Entity_map.length map);
  check int "all cold" 0 (Samya.Entity_map.hot_count map);
  (match Samya.Entity_map.find map "e42" with
  | Some core ->
      check int "find by name" 42 core.Samya.Entity_map.eid;
      check int "tokens kept" 42 core.Samya.Entity_map.tokens_left
  | None -> Alcotest.fail "registered entity not found");
  check bool "unknown name" true (Samya.Entity_map.find map "nope" = None);
  check Alcotest.string "by_eid" "e07" (Samya.Entity_map.by_eid map 7).Samya.Entity_map.name

let entity_map_iteration_shard_independent () =
  (* Iteration runs in dense-eid order whatever the shard count — the
     property every deterministic merge in the stack leans on. *)
  let names shards =
    let map : unit Samya.Entity_map.t = Samya.Entity_map.create ~shards () in
    for r = 0 to 199 do
      ignore (Samya.Entity_map.register map ~entity:(Printf.sprintf "k%03d" r) ~tokens:1)
    done;
    let acc = ref [] in
    Samya.Entity_map.iter (fun core -> acc := core.Samya.Entity_map.name :: !acc) map;
    !acc
  in
  let one = names 1 in
  check bool "1 vs 7 shards" true (one = names 7);
  check bool "1 vs 64 shards" true (one = names 64);
  check bool "registration order" true
    (List.rev one = List.init 200 (Printf.sprintf "k%03d"))

let entity_map_hot_tracking () =
  let map : string Samya.Entity_map.t = Samya.Entity_map.create () in
  let a = Samya.Entity_map.register map ~entity:"a" ~tokens:1 in
  let _b = Samya.Entity_map.register map ~entity:"b" ~tokens:1 in
  Samya.Entity_map.set_hot map a "heavy";
  check int "one hot" 1 (Samya.Entity_map.hot_count map);
  let seen = ref [] in
  Samya.Entity_map.iter_hot
    (fun core hot -> seen := (core.Samya.Entity_map.name, hot) :: !seen)
    map;
  check bool "iter_hot visits the hot one" true (!seen = [ ("a", "heavy") ])

let entity_map_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "shards >= 1" true
    (invalid (fun () -> (Samya.Entity_map.create ~shards:0 () : unit Samya.Entity_map.t)));
  check bool "capacity >= 1" true
    (invalid (fun () -> (Samya.Entity_map.create ~capacity:0 () : unit Samya.Entity_map.t)));
  let map : unit Samya.Entity_map.t = Samya.Entity_map.create () in
  ignore (Samya.Entity_map.register map ~entity:"dup" ~tokens:1);
  check bool "duplicate name" true
    (invalid (fun () -> Samya.Entity_map.register map ~entity:"dup" ~tokens:1));
  check bool "negative tokens" true
    (invalid (fun () -> Samya.Entity_map.register map ~entity:"neg" ~tokens:(-1)));
  check bool "by_eid out of range" true (invalid (fun () -> Samya.Entity_map.by_eid map 5))

let entity_map_shared_directory () =
  (* Two arenas on one directory — the shape of a cluster's sites: eids
     come from the directory, and an arena only finds what it appended. *)
  let directory = Samya.Entity_map.Directory.create ~shards:4 () in
  let a : unit Samya.Entity_map.t = Samya.Entity_map.create ~directory () in
  let b : unit Samya.Entity_map.t = Samya.Entity_map.create ~directory () in
  for r = 0 to 9 do
    ignore (Samya.Entity_map.register a ~entity:(Printf.sprintf "n%d" r) ~tokens:r)
  done;
  Samya.Entity_map.append b ~first_eid:0 ~count:5;
  for eid = 0 to 4 do
    Samya.Entity_map.set_share b eid (100 + eid)
  done;
  check int "one directory" 10 (Samya.Entity_map.Directory.length directory);
  (match (Samya.Entity_map.find a "n3", Samya.Entity_map.find b "n3") with
  | Some ca, Some cb ->
      check int "same eid" ca.Samya.Entity_map.eid cb.Samya.Entity_map.eid;
      check Alcotest.string "same name" ca.Samya.Entity_map.name cb.Samya.Entity_map.name;
      check int "own ledger a" 3 ca.Samya.Entity_map.tokens_left;
      check int "own ledger b" 103 cb.Samya.Entity_map.tokens_left
  | _ -> Alcotest.fail "shared name not found in both arenas");
  check bool "lagging arena: not yet appended" true (Samya.Entity_map.find b "n7" = None);
  check bool "leading arena finds it" true (Samya.Entity_map.find a "n7" <> None);
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "out-of-order append" true
    (invalid (fun () -> Samya.Entity_map.append b ~first_eid:6 ~count:1));
  check bool "re-append" true
    (invalid (fun () -> Samya.Entity_map.append b ~first_eid:4 ~count:1));
  check bool "past the directory" true
    (invalid (fun () -> Samya.Entity_map.append b ~first_eid:5 ~count:6));
  check bool "register on a lagging arena" true
    (invalid (fun () -> Samya.Entity_map.register b ~entity:"late" ~tokens:1));
  check int "rejections left b alone" 5 (Samya.Entity_map.length b);
  Samya.Entity_map.append b ~first_eid:5 ~count:1;
  check bool "caught up" true (Samya.Entity_map.find b "n5" <> None)

let site_counts cluster =
  Array.map Samya.Site.entity_count (Samya.Cluster.sites cluster)

let register_entities_all_or_nothing () =
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions:(regions ()) ()
  in
  Samya.Cluster.register_entities cluster [ ("x", 10) ];
  let before = site_counts cluster in
  let rejected batch =
    try Samya.Cluster.register_entities cluster batch; false
    with Invalid_argument _ -> true
  in
  check bool "duplicate within the batch" true
    (rejected [ ("a", 10); ("b", 10); ("a", 10) ]);
  check (Alcotest.array int) "no site changed" before (site_counts cluster);
  check bool "already registered" true (rejected [ ("c", 10); ("x", 10) ]);
  check bool "negative maximum" true (rejected [ ("d", 10); ("e", -1) ]);
  check bool "reserved empty name" true (rejected [ ("f", 10); ("", 10) ]);
  check (Alcotest.array int) "still no site changed" before (site_counts cluster);
  check int "directory rolled back" 1 (Samya.Cluster.entity_count cluster);
  (* The rejected names are free again, and the batch lands whole. *)
  Samya.Cluster.register_entities cluster [ ("a", 10); ("b", 10); ("c", 10) ];
  List.iter
    (fun e ->
      check bool ("conserved " ^ e) true
        (Samya.Cluster.check_invariant cluster ~entity:e ~maximum:10 = Ok ()))
    [ "a"; "b"; "c"; "x" ];
  check bool "uneven shares: negative share" true
    (try
       Samya.Cluster.init_entity_shares cluster ~entity:"g" ~shares:[| 1; 1; -1; 1; 1 |];
       false
     with Invalid_argument _ -> true);
  check (Alcotest.array int) "shares rejected before any site" [| 4; 4; 4; 4; 4 |]
    (site_counts cluster)

let registration_between_windows_only () =
  (* Lanes read the shared directory inside windows, so registration is
     refused there; a global runs between windows and may register. *)
  let cluster =
    Samya.Cluster.create ~engine_jobs:2 ~config:Samya.Config.default ~regions:(regions ())
      ()
  in
  let refused = ref None in
  Des.Engine.schedule_at (Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1)
    ~time_ms:5.0 (fun () ->
      refused :=
        Some
          (try Samya.Cluster.init_entity cluster ~entity:"lane" ~maximum:10; false
           with Invalid_argument _ -> true));
  Samya.Cluster.schedule_global cluster ~time_ms:10.0 (fun () ->
      Samya.Cluster.init_entity cluster ~entity:"global" ~maximum:10);
  Samya.Cluster.run_until cluster ~until_ms:20.0;
  check (Alcotest.option bool) "lane-local registration raises" (Some true) !refused;
  check int "only the global registered" 1 (Samya.Cluster.entity_count cluster);
  check (Alcotest.array int) "at every site" [| 1; 1; 1; 1; 1 |] (site_counts cluster);
  check bool "global entity conserved" true
    (Samya.Cluster.check_invariant cluster ~entity:"global" ~maximum:10 = Ok ())

let sites_agree_on_eids () =
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions:(regions ()) ()
  in
  Samya.Cluster.register_entities cluster
    (List.init 50 (fun i -> (Printf.sprintf "k%02d" i, 7)));
  Samya.Cluster.init_entity cluster ~entity:"hot" ~maximum:100;
  let names = "hot" :: List.init 50 (Printf.sprintf "k%02d") in
  List.iter
    (fun name ->
      let eids =
        Array.map
          (fun site ->
            match Samya.Entity_map.find (Samya.Site.arena site) name with
            | Some core -> core.Samya.Entity_map.eid
            | None -> -1)
          (Samya.Cluster.sites cluster)
      in
      check bool ("registered " ^ name) true (eids.(0) >= 0);
      Array.iter (fun eid -> check int ("same eid for " ^ name) eids.(0) eid) eids)
    names;
  check int "hot eid follows the fleet" 50
    (match Samya.Entity_map.find (Samya.Site.arena (Samya.Cluster.site cluster 3)) "hot" with
    | Some core -> core.Samya.Entity_map.eid
    | None -> -1)

let invariant_reads_every_site () =
  (* The audit resolves a name once and reads each site by eid: an
     imbalance planted on the last site alone must still show. *)
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions:(regions ()) ()
  in
  Samya.Cluster.register_entities cluster [ ("pad", 5) ];
  Samya.Cluster.init_entity_shares cluster ~entity ~shares:[| 0; 0; 0; 0; 7 |];
  check int "left on site 4 counts" 7 (Samya.Cluster.total_tokens_left cluster ~entity);
  check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "imbalance on site 4 reported"
    (Error "tokens not conserved: left 7 + acquired 0 <> maximum 0")
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:0);
  let granted = ref false in
  Samya.Cluster.schedule_global cluster ~time_ms:1.0 (fun () ->
      Samya.Cluster.submit_to_site cluster ~site:4
        (Samya.Types.Acquire { entity; amount = 3; deadline_ms = infinity })
        ~reply:(fun r -> granted := r = Samya.Types.Granted));
  drain ~extra:1_000.0 cluster;
  check bool "acquire on site 4 granted" true !granted;
  check int "acquired on site 4 counts" 3 (Samya.Cluster.total_acquired cluster ~entity);
  check bool "conserved at the true maximum" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:7 = Ok ())

(* The directory against a Hashtbl model: adds (duplicates included),
   finds (absent names included), truncations followed by re-adds, and
   growth far past the capacity hint, at shard counts 1, 3 and 256. *)
type directory_op = Add of int | Find of int | Truncate of int

let directory_ops =
  let open QCheck.Gen in
  let name = int_bound 299 in
  list_size (int_range 1 400)
    (frequency
       [
         (6, map (fun i -> Add i) name);
         (3, map (fun i -> Find i) name);
         (1, map (fun i -> Truncate i) (int_bound 100));
       ])

let directory_op_to_string = function
  | Add i -> Printf.sprintf "add n%d" i
  | Find i -> Printf.sprintf "find n%d" i
  | Truncate k -> Printf.sprintf "truncate -%d" k

let directory_matches_model =
  QCheck.Test.make ~count:200 ~name:"directory: matches a Hashtbl model (shards 1/3/256)"
    (QCheck.make ~print:(QCheck.Print.list directory_op_to_string) directory_ops)
    (fun ops ->
      List.for_all
        (fun shards ->
          let module D = Samya.Entity_map.Directory in
          let d = D.create ~shards ~capacity:4 () in
          let model = Hashtbl.create 64 and names = ref [||] in
          let agrees name =
            D.find d name = Option.value (Hashtbl.find_opt model name) ~default:(-1)
          in
          List.for_all
            (fun op ->
              match op with
              | Add i ->
                  let name = Printf.sprintf "n%d" i in
                  let fresh = not (Hashtbl.mem model name) in
                  (match D.add d name with
                  | eid ->
                      Hashtbl.replace model name eid;
                      names := Array.append !names [| name |];
                      fresh && eid = Array.length !names - 1
                  | exception Invalid_argument _ -> not fresh)
                  && agrees name
              | Find i -> agrees (Printf.sprintf "n%d" i)
              | Truncate k ->
                  let n = max 0 (Array.length !names - k) in
                  D.truncate d n;
                  Array.iteri (fun eid name -> if eid >= n then Hashtbl.remove model name) !names;
                  names := Array.sub !names 0 n;
                  D.length d = n)
            ops
          && D.length d = Array.length !names
          && Array.for_all agrees !names
          && Array.for_all
               (fun eid -> D.name d eid = !names.(eid))
               (Array.init (Array.length !names) Fun.id))
        [ 1; 3; 256 ])

let directory_probe_runs_stay_short () =
  (* Shard and home slot come from disjoint bits of one hash. Taking both
     from the same low bits leaves 255/256 of each shard's slots unused
     and runs of hundreds of probes; measured here: a longest run of 16. *)
  let d = Samya.Entity_map.Directory.create ~shards:256 ~capacity:100_000 () in
  for r = 0 to 99_999 do
    ignore (Samya.Entity_map.Directory.add d (Printf.sprintf "key%07d" r))
  done;
  let longest = Samya.Entity_map.Directory.max_probe d in
  if longest > 40 then
    Alcotest.failf "longest probe run %d over 100k names exceeds 40" longest

let directory_hash_collisions () =
  (* Slots tag each eid with its name's 30-bit hash, so two names on equal
     hashes must still be told apart by their strings. By the birthday
     bound ~40k names hold a colliding pair; find one by brute force. *)
  let seen = Hashtbl.create 65_536 in
  let rec collide i =
    let name = Printf.sprintf "c%d" i in
    let h = Hashtbl.hash name in
    match Hashtbl.find_opt seen h with
    | Some other -> (other, name)
    | None ->
        Hashtbl.add seen h name;
        collide (i + 1)
  in
  let a, b = collide 0 in
  check bool "distinct names, one hash" true
    (a <> b && Hashtbl.hash a = Hashtbl.hash b);
  List.iter
    (fun shards ->
      let module D = Samya.Entity_map.Directory in
      let d = D.create ~shards ~capacity:4 () in
      let label what = Printf.sprintf "%s (shards %d)" what shards in
      check int (label "first") 0 (D.add d a);
      check int (label "second on the same hash") (-1) (D.find d b);
      check int (label "second added") 1 (D.add d b);
      check int (label "a resolves") 0 (D.find d a);
      check int (label "b resolves") 1 (D.find d b);
      check bool (label "duplicate of b refused") true
        (try ignore (D.add d b); false with Invalid_argument _ -> true);
      D.truncate d 1;
      check int (label "a survives the truncate") 0 (D.find d a);
      check int (label "b is gone") (-1) (D.find d b);
      check int (label "b re-added") 1 (D.add d b);
      D.truncate d 0;
      check int (label "a is gone") (-1) (D.find d a);
      check int (label "b added first") 0 (D.add d b);
      check int (label "a after it") 1 (D.add d a);
      check int (label "b still first") 0 (D.find d b))
    [ 1; 3; 256 ]

(* Two arenas on one directory against a model: per arena, each eid's
   starting share and, once touched, its ledger and heat. Names are added
   to the directory and appended to both arenas together; every other
   operation acts on one arena. *)
type arena_op =
  | Register of int  (* this many new names *)
  | By_eid of bool * int
  | Find of bool * int  (* indices past the end name unknown entities *)
  | Peek of bool * int
  | Read of bool * int
  | Bump of bool * int * int  (* touch and move the ledger by a delta *)
  | Heat of bool * int

let arena_ops =
  let open QCheck.Gen in
  let side = bool and index = int_bound 199 in
  list_size (int_range 1 120)
    (frequency
       [
         (2, map (fun n -> Register n) (int_range 1 40));
         (2, map2 (fun s i -> By_eid (s, i)) side index);
         (2, map2 (fun s i -> Find (s, i)) side (int_bound 239));
         (2, map2 (fun s i -> Peek (s, i)) side index);
         (3, map2 (fun s i -> Read (s, i)) side index);
         (2, map3 (fun s i d -> Bump (s, i, d)) side index (int_range (-5) 5));
         (1, map2 (fun s i -> Heat (s, i)) side index);
       ])

let arena_op_to_string = function
  | Register n -> Printf.sprintf "register %d" n
  | By_eid (s, i) -> Printf.sprintf "by_eid %b %d" s i
  | Find (s, i) -> Printf.sprintf "find %b %d" s i
  | Peek (s, i) -> Printf.sprintf "peek %b %d" s i
  | Read (s, i) -> Printf.sprintf "read %b %d" s i
  | Bump (s, i, d) -> Printf.sprintf "bump %b %d %+d" s i d
  | Heat (s, i) -> Printf.sprintf "heat %b %d" s i

(* A touched eid's ledger in the model: (left, acquired, wanted, hot). *)
type model_ledger = { mutable left : int; mutable acq : int; mutable want : int; mutable heat : bool }

let arena_matches_model =
  QCheck.Test.make ~count:150 ~name:"entity map: two arenas match a model (shards 1/3/256)"
    (QCheck.make ~print:(QCheck.Print.list arena_op_to_string) arena_ops)
    (fun ops ->
      List.for_all
        (fun shards ->
          let module M = Samya.Entity_map in
          let directory = M.Directory.create ~shards ~capacity:4 () in
          let arenas : string M.t array =
            [| M.create ~directory ~capacity:2 (); M.create ~directory ~capacity:2 () |]
          in
          let share side eid = ((eid * 7) + side) mod 50 in
          let touched = [| Hashtbl.create 16; Hashtbl.create 16 |] in
          let n = ref 0 in
          let name eid = Printf.sprintf "a%d" eid in
          let side s = if s then 1 else 0 in
          (* A write path's touch: the model's ledger, made from the share
             on first touch. *)
          let touch s eid =
            match Hashtbl.find_opt touched.(s) eid with
            | Some l -> l
            | None ->
                let l = { left = share s eid; acq = 0; want = 0; heat = false } in
                Hashtbl.replace touched.(s) eid l;
                l
          in
          (* A core the arena returned: the right entity, touched in the
             model, carrying the model's ledger. *)
          let same_core s eid (core : string M.core) =
            match Hashtbl.find_opt touched.(s) eid with
            | None -> false
            | Some l ->
                core.M.eid = eid && core.M.name = name eid && core.M.tokens_left = l.left
                && core.M.acquired_net = l.acq && core.M.tokens_wanted = l.want
                && (core.M.hot <> None) = l.heat
          in
          let reads_agree s eid =
            let left, acq, want =
              match Hashtbl.find_opt touched.(s) eid with
              | Some l -> (l.left, l.acq, l.want)
              | None -> (share s eid, 0, 0)
            in
            M.tokens_left arenas.(s) eid = left
            && M.acquired_net arenas.(s) eid = acq
            && M.tokens_wanted arenas.(s) eid = want
          in
          (* After every step: [iter] visits exactly the touched eids, in
             eid order; a cold name peeks [None]; [hot_count] matches; and
             none of these reads materialised a core. *)
          let consistent () =
            Array.for_all
              (fun s ->
                let a = arenas.(s) in
                let visited = ref [] in
                M.iter (fun core -> visited := core.M.eid :: !visited) a;
                let expected =
                  List.sort Int.compare (Hashtbl.fold (fun eid _ acc -> eid :: acc) touched.(s) [])
                in
                let hot = Hashtbl.fold (fun _ l acc -> if l.heat then acc + 1 else acc) touched.(s) 0 in
                List.rev !visited = expected
                && M.hot_count a = hot
                && M.length a = !n
                && List.for_all
                     (fun eid ->
                       reads_agree s eid
                       && (match M.peek a (name eid) with
                          | None -> not (Hashtbl.mem touched.(s) eid)
                          | Some core -> same_core s eid core))
                     (List.init !n Fun.id))
              [| 0; 1 |]
          in
          List.for_all
            (fun op ->
              let in_range _ = !n > 0 in
              (match op with
              | Register k ->
                  let first_eid = !n in
                  for eid = first_eid to first_eid + k - 1 do
                    ignore (M.Directory.add directory (name eid))
                  done;
                  n := !n + k;
                  Array.iteri
                    (fun s a ->
                      M.append a ~first_eid ~count:k;
                      for eid = first_eid to !n - 1 do
                        M.set_share a eid (share s eid)
                      done)
                    arenas;
                  true
              | By_eid (s, i) when in_range i ->
                  let s = side s and eid = i mod !n in
                  ignore (touch s eid);
                  same_core s eid (M.by_eid arenas.(s) eid)
              | Find (s, i) -> (
                  let s = side s in
                  match M.find arenas.(s) (name i) with
                  | None -> i >= !n
                  | Some core -> i < !n && (ignore (touch s i); same_core s i core))
              | Peek (s, i) -> (
                  let s = side s in
                  match M.peek arenas.(s) (name i) with
                  | None -> not (Hashtbl.mem touched.(s) i)
                  | Some core -> same_core s i core)
              | Read (s, i) when in_range i -> reads_agree (side s) (i mod !n)
              | Bump (s, i, d) when in_range i ->
                  let s = side s and eid = i mod !n in
                  let core = M.by_eid arenas.(s) eid in
                  let l = touch s eid in
                  core.M.tokens_left <- core.M.tokens_left + d;
                  core.M.acquired_net <- core.M.acquired_net - d;
                  core.M.tokens_wanted <- core.M.tokens_wanted + abs d;
                  l.left <- l.left + d;
                  l.acq <- l.acq - d;
                  l.want <- l.want + abs d;
                  true
              | Heat (s, i) when in_range i ->
                  let s = side s and eid = i mod !n in
                  let core = M.by_eid arenas.(s) eid in
                  M.set_hot arenas.(s) core "hot";
                  (touch s eid).heat <- true;
                  same_core s eid core
              | By_eid _ | Read _ | Bump _ | Heat _ -> true)
              && consistent ())
            ops)
        [ 1; 3; 256 ])

let cold_reads_stay_cold () =
  (* The audit reads every site's ledger by eid: a cold entity has no core
     to read, and reading must not give it one (a core is 8 words). *)
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions:(regions ()) ()
  in
  let keys = Array.init 10_000 (Printf.sprintf "key%05d") in
  Samya.Cluster.register_entities cluster
    (Array.to_list (Array.map (fun key -> (key, 50)) keys));
  let before = Gc.minor_words () in
  let ok = ref 0 in
  for i = 0 to Array.length keys - 1 do
    match Samya.Cluster.check_invariant cluster ~entity:keys.(i) ~maximum:50 with
    | Ok () -> incr ok
    | Error _ -> ()
  done;
  let words_per_key = (Gc.minor_words () -. before) /. float_of_int (Array.length keys) in
  check int "every key conserved" (Array.length keys) !ok;
  check int "no entity heated" 0 (Samya.Cluster.hot_entities cluster);
  check bool "no core materialised" true
    (Array.for_all
       (fun site -> Samya.Entity_map.peek (Samya.Site.arena site) keys.(4_242) = None)
       (Samya.Cluster.sites cluster));
  if words_per_key > 0.01 then
    Alcotest.failf "audit allocates %.3f minor words per key (bound 0.01)" words_per_key

let suite =
  [
    Alcotest.test_case "protocol: value helpers" `Quick protocol_value_helpers;
    Alcotest.test_case "demand tracker: epochs" `Quick demand_tracker_epochs;
    Alcotest.test_case "demand tracker: capacity" `Quick demand_tracker_capacity;
    Alcotest.test_case "serve: acquire/release" `Quick acquire_release_roundtrip;
    Alcotest.test_case "serve: invalid amount" `Quick invalid_amount_rejected;
    Alcotest.test_case "serve: unknown entity" `Quick unknown_entity_rejected;
    Alcotest.test_case "serve: nearest site" `Quick routed_to_nearest_site;
    Alcotest.test_case "serve: global read" `Quick read_returns_global_snapshot;
    Alcotest.test_case "redistribution: majority variant" `Quick
      (redistribution_exceeds_local_share Samya.Config.Majority);
    Alcotest.test_case "redistribution: star variant" `Quick
      (redistribution_exceeds_local_share Samya.Config.Star);
    Alcotest.test_case "constraint: global (majority)" `Slow
      (constraint_is_global Samya.Config.Majority);
    Alcotest.test_case "constraint: global (star)" `Slow
      (constraint_is_global Samya.Config.Star);
    Alcotest.test_case "ablation: no redistribution" `Quick no_redistribution_rejects_locally;
    Alcotest.test_case "ablation: no constraint" `Quick no_constraint_grants_everything;
    Alcotest.test_case "ablation: no prediction" `Quick no_prediction_is_reactive_only;
    Alcotest.test_case "queueing during protocol" `Quick requests_queue_during_redistribution;
    Alcotest.test_case "decided log stays bounded" `Quick decided_log_stays_bounded;
    Alcotest.test_case "event hook matches stats" `Quick event_hook_observes_protocol;
    Alcotest.test_case "failure: fresh-leader abort" `Quick aborts_when_majority_unreachable;
    Alcotest.test_case "failure: star works in minority" `Quick
      star_redistributes_in_minority_partition;
    Alcotest.test_case "failure: app-manager failover" `Quick crashed_site_fails_over;
    Alcotest.test_case "failure: all down" `Quick all_sites_down_unavailable;
    Alcotest.test_case "failure: recovery" `Quick recovery_restores_service;
    QCheck_alcotest.to_alcotest invariant_majority;
    QCheck_alcotest.to_alcotest invariant_star;
    QCheck_alcotest.to_alcotest invariant_majority_lossy;
    QCheck_alcotest.to_alcotest invariant_majority_crash;
    QCheck_alcotest.to_alcotest invariant_star_lossy;
    QCheck_alcotest.to_alcotest invariant_star_crash;
    QCheck_alcotest.to_alcotest invariant_majority_partition;
    QCheck_alcotest.to_alcotest invariant_star_partition;
    QCheck_alcotest.to_alcotest invariant_small_log_cap;
    Alcotest.test_case "entity map: registration" `Quick entity_map_registration;
    Alcotest.test_case "entity map: shard-independent iteration" `Quick
      entity_map_iteration_shard_independent;
    Alcotest.test_case "entity map: hot tracking" `Quick entity_map_hot_tracking;
    Alcotest.test_case "entity map: validation" `Quick entity_map_validation;
    Alcotest.test_case "single region: one-lane shard" `Quick
      single_region_cluster_conserves;
    Alcotest.test_case "entity map: shared directory" `Quick entity_map_shared_directory;
    Alcotest.test_case "registration: all or nothing" `Quick
      register_entities_all_or_nothing;
    Alcotest.test_case "registration: between windows only" `Quick
      registration_between_windows_only;
    Alcotest.test_case "directory: sites agree on eids" `Quick sites_agree_on_eids;
    Alcotest.test_case "invariant: reads every site" `Quick invariant_reads_every_site;
    QCheck_alcotest.to_alcotest directory_matches_model;
    Alcotest.test_case "directory: equal hashes stay apart" `Quick directory_hash_collisions;
    QCheck_alcotest.to_alcotest arena_matches_model;
    Alcotest.test_case "directory: probe runs stay short" `Quick
      directory_probe_runs_stay_short;
    Alcotest.test_case "invariant: cold reads stay cold" `Quick cold_reads_stay_cold;
  ]
