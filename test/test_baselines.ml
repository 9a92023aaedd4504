(* Tests for the three baselines: Demarcation/Escrow and the two
   replicated-log systems, MultiPaxSys and the CockroachDB-like Raft
   system. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entity = "VM"

(* Every baseline runs on a one-lane shard: client work is scheduled on
   its lane's engine, and the shard drives the run. *)
let lane shard = Des.Shard.engine shard 0

let run_for shard ms = Des.Shard.run shard ~until_ms:(Des.Shard.now shard +. ms)

(* ------------------------------------------------------------------ *)
(* MultiPaxSys *)

let mp_make ?(maximum = 100) () =
  let system = Baselines.Replicated.multipaxsys ~seed:5L () in
  Baselines.Replicated.init_entity system ~entity ~maximum;
  system

let mp_submit system ~time_ms request callback =
  Des.Engine.schedule_at
    (lane (Baselines.Replicated.shard system))
    ~time_ms
    (fun () ->
      Baselines.Replicated.submit system ~region:Geonet.Region.Us_west1 request
        ~reply:callback)

let mp_basic_commit () =
  let system = mp_make () in
  let response = ref None in
  mp_submit system ~time_ms:0.0
    (Samya.Types.Acquire { entity; amount = 10; deadline_ms = infinity })
    (fun r -> response := Some r);
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:5_000.0;
  check bool "granted" true (!response = Some Samya.Types.Granted);
  check int "replicated state" 10 (Baselines.Replicated.total_acquired system ~entity);
  check int "committed counter" 1 (Baselines.Replicated.committed_txns system)

let mp_constraint_enforced () =
  let system = mp_make ~maximum:15 () in
  let outcomes = ref [] in
  List.iteri
    (fun i amount ->
      mp_submit system
        ~time_ms:(float_of_int i *. 500.0)
        (Samya.Types.Acquire { entity; amount; deadline_ms = infinity })
        (fun r -> outcomes := r :: !outcomes))
    [ 10; 10; 5 ];
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:20_000.0;
  check (Alcotest.list bool) "grant, reject, grant"
    [ true; false; true ]
    (List.rev_map (fun r -> r = Samya.Types.Granted) !outcomes);
  check int "state at limit" 15 (Baselines.Replicated.total_acquired system ~entity);
  check bool "invariant" true
    (Baselines.Replicated.check_invariant system ~entity ~maximum:15 = Ok ())

let mp_release_cannot_go_negative () =
  let system = mp_make () in
  let response = ref None in
  mp_submit system ~time_ms:0.0
    (Samya.Types.Release { entity; amount = 5; deadline_ms = infinity })
    (fun r -> response := Some r);
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:5_000.0;
  check bool "rejected" true (!response = Some Samya.Types.Rejected);
  check int "state unchanged" 0 (Baselines.Replicated.total_acquired system ~entity)

let mp_serializes_hot_entity () =
  (* Two-round WAN replication per txn: 20 txns take at least 20x the
     round cost, confirming sequential execution. *)
  let system = mp_make () in
  let done_at = ref 0.0 in
  let shard = Baselines.Replicated.shard system in
  let engine = lane shard in
  let remaining = ref 20 in
  (* Submit with spacing under the service time so the queue is the
     bottleneck; admission control caps it, so feed one at a time. *)
  let rec feed i =
    if i < 20 then
      mp_submit system ~time_ms:0.0
        (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
        (fun _ ->
          decr remaining;
          done_at := Des.Engine.now engine;
          feed (i + 1))
    else ()
  in
  feed 0;
  (* Feeding on reply means each txn waits for the previous one. *)
  Des.Shard.run shard ~until_ms:60_000.0;
  check int "all served" 0 !remaining;
  check bool
    (Printf.sprintf "sequential rounds dominate (%.0f ms)" !done_at)
    true (!done_at > 20.0 *. 60.0)

let mp_reads_at_leader () =
  let system = mp_make ~maximum:100 () in
  mp_submit system ~time_ms:0.0 (Samya.Types.Acquire { entity; amount = 40; deadline_ms = infinity }) ignore;
  let result = ref None in
  mp_submit system ~time_ms:2_000.0 (Samya.Types.Read { entity; deadline_ms = infinity }) (fun r -> result := Some r);
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:10_000.0;
  check bool "read result" true
    (!result = Some (Samya.Types.Read_result { tokens_available = 60 }))

let mp_unavailable_when_leader_down () =
  let system = mp_make () in
  Baselines.Replicated.crash_site system 1;
  let response = ref None in
  mp_submit system ~time_ms:0.0
    (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
    (fun r -> response := Some r);
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:5_000.0;
  check bool "unavailable" true (!response = Some Samya.Types.Unavailable)

let mp_blocks_without_majority () =
  let system = mp_make () in
  (* Keep the leader (1) and the us-west gateway (0) up; kill the rest. *)
  Baselines.Replicated.crash_site system 2;
  Baselines.Replicated.crash_site system 3;
  Baselines.Replicated.crash_site system 4;
  let replied = ref false in
  mp_submit system ~time_ms:0.0
    (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
    (fun _ -> replied := true);
  Des.Shard.run (Baselines.Replicated.shard system) ~until_ms:30_000.0;
  check bool "no reply without majority" false !replied

(* ------------------------------------------------------------------ *)
(* Demarcation / Escrow *)

let dem_make ?(maximum = 5_000) () =
  let system = Baselines.Demarcation.create ~seed:6L () in
  Baselines.Demarcation.init_entity system ~entity ~maximum;
  system

let dem_submit system ~time_ms ~region request callback =
  Des.Engine.schedule_at
    (lane (Baselines.Demarcation.shard system))
    ~time_ms
    (fun () -> Baselines.Demarcation.submit system ~region request ~reply:callback)

let dem_local_service () =
  let system = dem_make () in
  let response = ref None in
  dem_submit system ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 100; deadline_ms = infinity })
    (fun r -> response := Some r);
  Des.Shard.run (Baselines.Demarcation.shard system) ~until_ms:5_000.0;
  check bool "granted" true (!response = Some Samya.Types.Granted);
  check int "escrow reduced" 900 (Baselines.Demarcation.total_tokens_left system ~entity - 4_000)

let dem_borrows_when_exhausted () =
  let system = dem_make () in
  let granted = ref 0 in
  for i = 0 to 1_499 do
    dem_submit system
      ~time_ms:(float_of_int i *. 5.0)
      ~region:Geonet.Region.Us_west1
      (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
      (function Samya.Types.Granted -> incr granted | _ -> ())
  done;
  Des.Shard.run (Baselines.Demarcation.shard system) ~until_ms:120_000.0;
  check bool (Printf.sprintf "borrowing served beyond the share (%d)" !granted) true
    (!granted >= 1_390);
  check bool "borrows happened" true (Baselines.Demarcation.borrows system > 0);
  check bool "conservation" true
    (Baselines.Demarcation.check_invariant system ~entity ~maximum:5_000 = Ok ())

let dem_global_exhaustion_rejects () =
  let system = dem_make ~maximum:50 () in
  let granted = ref 0 and rejected = ref 0 in
  for i = 0 to 99 do
    dem_submit system
      ~time_ms:(float_of_int i *. 50.0)
      ~region:Geonet.Region.Us_west1
      (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
      (function
        | Samya.Types.Granted -> incr granted
        | Samya.Types.Rejected -> incr rejected
        | _ -> ())
  done;
  Des.Shard.run (Baselines.Demarcation.shard system) ~until_ms:300_000.0;
  check int "exactly the pool granted" 50 !granted;
  check int "the rest rejected" 50 !rejected

let dem_reads_are_local () =
  let system = dem_make () in
  let result = ref None in
  dem_submit system ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.Read { entity; deadline_ms = infinity })
    (fun r -> result := Some r);
  Des.Shard.run (Baselines.Demarcation.shard system) ~until_ms:5_000.0;
  check bool "local escrow view" true
    (!result = Some (Samya.Types.Read_result { tokens_available = 1_000 }))

let dem_local_grant_costs_two_events () =
  (* A client in us-west1 acquires from site 0's own escrow at 1 s: no
     borrow. The site answers with its CPU finish, and the return leg
     leaves from there, so the request costs the outbound leg (which
     serves it) and the return leg (which runs the client's reply). *)
  let system = dem_make () in
  let shard = Baselines.Demarcation.shard system in
  let times = ref [] in
  Des.Engine.set_tracer (lane shard)
    (Some
       {
         Des.Engine.on_timer_fired = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
         on_timer_cancelled = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
         after_step = (fun ~now_ms ~pending:_ -> times := now_ms :: !times);
       });
  let sent = 1_000.0 in
  let replied = ref [] in
  Des.Shard.schedule_global shard ~time_ms:sent (fun () ->
      Baselines.Demarcation.submit system ~region:Geonet.Region.Us_west1
        (Samya.Types.acquire ~entity ~amount:1 ())
        ~reply:(fun response ->
          replied := (Des.Engine.now (lane shard), response) :: !replied));
  Des.Shard.run shard ~until_ms:(sent +. 100.0);
  let region = Geonet.Region.Us_west1 in
  let base =
    (Geonet.Region.client_site_rtt_ms /. 2.0) +. Geonet.Region.one_way_ms region region
  in
  let within lo x = x >= lo +. base -. 1e-9 && x <= lo +. (1.05 *. base) +. 1e-9 in
  match (List.rev !times, !replied) with
  | [ arrived; returned ], [ (reply_ms, response) ] ->
      check bool "granted" true (response = Samya.Types.Granted);
      check bool "outbound leg within [base, 1.05 base]" true (within sent arrived);
      let finish = arrived +. 0.15 in
      check bool
        (Printf.sprintf
           "reply %.4f within [finish + base, finish + 1.05 base] of finish %.4f" returned
           finish)
        true (within finish returned);
      check (Alcotest.float 0.0) "the reply runs in the return leg" returned reply_ms;
      check int "no borrow" 0 (Baselines.Demarcation.borrows system)
  | events, replies ->
      Alcotest.failf "expected 2 events and one reply, got %d events and %d replies"
        (List.length events) (List.length replies)

(* ------------------------------------------------------------------ *)
(* CockroachDB-like *)

let crdb_make ?(maximum = 100) () =
  let system = Baselines.Replicated.cockroach ~seed:7L () in
  Baselines.Replicated.init_entity system ~entity ~maximum;
  run_for (Baselines.Replicated.shard system) 10_000.0;
  system

let crdb_elects_preferred_leaseholder () =
  let system = crdb_make () in
  check (Alcotest.option int) "node 1 is the leaseholder" (Some 1)
    (Baselines.Replicated.leader system)

let crdb_commits_and_enforces () =
  let system = crdb_make ~maximum:25 () in
  let shard = Baselines.Replicated.shard system in
  let engine = lane shard in
  let outcomes = ref [] in
  List.iteri
    (fun i amount ->
      Des.Engine.schedule engine ~delay_ms:(float_of_int i *. 1_000.0) (fun () ->
          Baselines.Replicated.submit system ~region:Geonet.Region.Us_west1
            (Samya.Types.Acquire { entity; amount; deadline_ms = infinity })
            ~reply:(fun r -> outcomes := r :: !outcomes)))
    [ 20; 20; 5 ];
  Des.Shard.run shard ~until_ms:60_000.0;
  check (Alcotest.list bool) "grant, reject, grant"
    [ true; false; true ]
    (List.rev_map (fun r -> r = Samya.Types.Granted) !outcomes);
  check int "state at limit" 25 (Baselines.Replicated.total_acquired system ~entity)

let crdb_survives_follower_crash () =
  let system = crdb_make () in
  let shard = Baselines.Replicated.shard system in
  let engine = lane shard in
  Baselines.Replicated.crash_site system 3;
  Baselines.Replicated.crash_site system 4;
  let response = ref None in
  Des.Engine.schedule engine ~delay_ms:100.0 (fun () ->
      Baselines.Replicated.submit system ~region:Geonet.Region.Us_west1
        (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
        ~reply:(fun r -> response := Some r));
  Des.Shard.run shard ~until_ms:60_000.0;
  check bool "still commits with 3/5" true (!response = Some Samya.Types.Granted)

let crdb_reelects_after_leaseholder_crash () =
  let system = crdb_make () in
  let shard = Baselines.Replicated.shard system in
  Baselines.Replicated.crash_site system 1;
  run_for shard 60_000.0;
  (match Baselines.Replicated.leader system with
  | Some leader -> check bool "new leaseholder" true (leader <> 1)
  | None -> Alcotest.fail "no leader re-elected");
  let response = ref None in
  Baselines.Replicated.submit system ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
    ~reply:(fun r -> response := Some r);
  run_for shard 60_000.0;
  check bool "commits under new leaseholder" true (!response = Some Samya.Types.Granted)

(* ------------------------------------------------------------------ *)
(* The gateway difference, under a partition that cuts us-west1 (node 0)
   off from the leader (node 1) and keeps a majority around the leader. *)

let cockroach_settles_on_construction () =
  let system = Baselines.Replicated.cockroach ~seed:7L () in
  check (Alcotest.option int) "leader right after construction" (Some 1)
    (Baselines.Replicated.leader system)

let us_west1_reply_under_partition system =
  Baselines.Replicated.init_entity system ~entity ~maximum:100;
  Baselines.Replicated.partition system [ [ 0 ]; [ 1; 2; 3; 4 ] ];
  let shard = Baselines.Replicated.shard system in
  let engine = lane shard in
  let response = ref None in
  Des.Engine.schedule engine ~delay_ms:100.0 (fun () ->
      Baselines.Replicated.submit system ~region:Geonet.Region.Us_west1
        (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
        ~reply:(fun r -> response := Some r));
  run_for shard 30_000.0;
  !response

let multipax_gateway_cut_off () =
  check bool "unavailable through the cut-off gateway" true
    (us_west1_reply_under_partition (Baselines.Replicated.multipaxsys ~seed:5L ())
    = Some Samya.Types.Unavailable)

let cockroach_gateway_is_leaseholder () =
  check bool "granted by the leaseholder" true
    (us_west1_reply_under_partition (Baselines.Replicated.cockroach ~seed:7L ())
    = Some Samya.Types.Granted)

let suite =
  [
    Alcotest.test_case "multipax: basic commit" `Quick mp_basic_commit;
    Alcotest.test_case "multipax: constraint" `Quick mp_constraint_enforced;
    Alcotest.test_case "multipax: no negative usage" `Quick mp_release_cannot_go_negative;
    Alcotest.test_case "multipax: serializes hot entity" `Quick mp_serializes_hot_entity;
    Alcotest.test_case "multipax: leader reads" `Quick mp_reads_at_leader;
    Alcotest.test_case "multipax: leader down" `Quick mp_unavailable_when_leader_down;
    Alcotest.test_case "multipax: blocks without majority" `Quick mp_blocks_without_majority;
    Alcotest.test_case "demarcation: local service" `Quick dem_local_service;
    Alcotest.test_case "demarcation: borrows" `Quick dem_borrows_when_exhausted;
    Alcotest.test_case "demarcation: global exhaustion" `Quick dem_global_exhaustion_rejects;
    Alcotest.test_case "demarcation: local reads" `Quick dem_reads_are_local;
    Alcotest.test_case "cockroach: preferred leaseholder" `Quick
      crdb_elects_preferred_leaseholder;
    Alcotest.test_case "cockroach: commits and enforces" `Quick crdb_commits_and_enforces;
    Alcotest.test_case "cockroach: follower crashes" `Quick crdb_survives_follower_crash;
    Alcotest.test_case "cockroach: leaseholder re-election" `Quick
      crdb_reelects_after_leaseholder_crash;
    Alcotest.test_case "cockroach: settled on construction" `Quick
      cockroach_settles_on_construction;
    Alcotest.test_case "multipax: partitioned gateway" `Quick multipax_gateway_cut_off;
    Alcotest.test_case "cockroach: leaseholder gateway" `Quick
      cockroach_gateway_is_leaseholder;
    Alcotest.test_case "demarcation: a local grant costs two events" `Quick
      dem_local_grant_costs_two_events;
  ]
