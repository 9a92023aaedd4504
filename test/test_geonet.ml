(* Tests for the simulated geo network: latency model, delivery, loss,
   crashes and partitions. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let five () = Array.of_list Geonet.Region.default_five

(* Every network runs on a shard; these tests use one lane, whose lookahead
   is derived as a cluster derives it. *)
let one_lane () =
  Des.Shard.create ~seed:5L ~lanes:1 ~lookahead_ms:(Geonet.Region.min_cross_one_way_ms ()) ()

let create shard =
  Geonet.Network.create shard ~node_lane:(Array.make 5 0) ~seed:5L ~regions:(five ())

let make ?drop ?jitter () =
  let shard = one_lane () in
  (shard, create shard ?drop_probability:drop ?jitter_fraction:jitter ())

(* Drain everything sent so far: no test here keeps traffic going for
   anywhere near this long. *)
let run shard = Des.Shard.run shard ~until_ms:(Des.Shard.now shard +. 60_000.0)

let region_symmetry () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check (Alcotest.float 1e-9) "rtt symmetric" (Geonet.Region.rtt_ms a b)
            (Geonet.Region.rtt_ms b a))
        Geonet.Region.all)
    Geonet.Region.all

let region_intra_is_fast () =
  List.iter
    (fun r -> check bool "intra-region ~1ms" true (Geonet.Region.rtt_ms r r <= 2.0))
    Geonet.Region.all

let region_of_string_roundtrip () =
  List.iter
    (fun r ->
      match Geonet.Region.of_string (Geonet.Region.name r) with
      | Some r' -> check bool "roundtrip" true (r = r')
      | None -> Alcotest.fail "of_string failed")
    Geonet.Region.all;
  check bool "unknown rejected" true (Geonet.Region.of_string "mars-east1" = None)

let delivery_with_latency () =
  let shard, network = make ~jitter:0.0 () in
  let received = ref None in
  Geonet.Network.register network ~node:1 (fun envelope ->
      received := Some (envelope.Geonet.Network.src, envelope.Geonet.Network.payload,
                        Des.Engine.now (Des.Shard.engine shard 0)));
  Geonet.Network.send network ~src:0 ~dst:1 "hello";
  run shard;
  match !received with
  | Some (src, payload, at) ->
      check int "src" 0 src;
      check Alcotest.string "payload" "hello" payload;
      let expected = Geonet.Network.latency_ms network ~src:0 ~dst:1 in
      check (Alcotest.float 1e-6) "arrives after one-way latency" expected at
  | None -> Alcotest.fail "not delivered"

let broadcast_reaches_everyone () =
  let shard, network = make () in
  let got = Array.make 5 false in
  for node = 0 to 4 do
    Geonet.Network.register network ~node (fun _ -> got.(node) <- true)
  done;
  Geonet.Network.broadcast network ~src:2 ();
  run shard;
  check (Alcotest.array bool) "all but source" [| true; true; false; true; true |] got

let drops_lose_messages () =
  let shard, network = make ~drop:1.0 () in
  let received = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr received);
  for _ = 1 to 50 do
    Geonet.Network.send network ~src:0 ~dst:1 ()
  done;
  run shard;
  check int "all dropped" 0 !received;
  check int "accounted as dropped" 50 (Geonet.Network.stats_dropped network)

let drop_rate_statistical () =
  let shard, network = make ~drop:0.3 () in
  let received = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr received);
  for _ = 1 to 5_000 do
    Geonet.Network.send network ~src:0 ~dst:1 ()
  done;
  run shard;
  let rate = 1.0 -. (float_of_int !received /. 5_000.0) in
  check bool "loss near 30%" true (Float.abs (rate -. 0.3) < 0.03)

let crashed_node_receives_nothing () =
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr received);
  Geonet.Network.crash network 1;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "crashed target" 0 !received;
  Geonet.Network.recover network 1;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "delivered after recovery" 1 !received

let crashed_node_sends_nothing () =
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr received);
  Geonet.Network.crash network 0;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "crashed source" 0 !received

let partition_blocks_cross_traffic () =
  let shard, network = make () in
  let received = Array.make 5 0 in
  for node = 0 to 4 do
    Geonet.Network.register network ~node (fun _ -> received.(node) <- received.(node) + 1)
  done;
  Geonet.Network.set_partition network [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  Geonet.Network.send network ~src:0 ~dst:1 ();
  Geonet.Network.send network ~src:0 ~dst:3 ();
  Geonet.Network.send network ~src:3 ~dst:4 ();
  Geonet.Network.send network ~src:4 ~dst:2 ();
  run shard;
  check int "same side A" 1 received.(1);
  check int "cross blocked" 0 received.(3);
  check int "same side B" 1 received.(4);
  check int "cross blocked reverse" 0 received.(2);
  check bool "reachable within" true (Geonet.Network.reachable network 0 2);
  check bool "unreachable across" false (Geonet.Network.reachable network 0 4)

let heal_restores_traffic () =
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:3 (fun _ -> incr received);
  Geonet.Network.set_partition network [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  Geonet.Network.send network ~src:0 ~dst:3 ();
  run shard;
  check int "blocked" 0 !received;
  Geonet.Network.clear_partition network;
  Geonet.Network.send network ~src:0 ~dst:3 ();
  run shard;
  check int "healed" 1 !received

let partition_checked_at_delivery () =
  (* A message in flight when the partition heals still gets through:
     delay and disconnection are indistinguishable in an asynchronous
     network. *)
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:3 (fun _ -> incr received);
  Geonet.Network.send network ~src:0 ~dst:3 ();
  (* Heal before the in-flight message lands. *)
  Geonet.Network.set_partition network [ [ 0 ]; [ 3 ] ];
  Des.Shard.schedule_global shard ~time_ms:1.0 (fun () ->
      Geonet.Network.clear_partition network);
  run shard;
  check int "late heal lets it through" 1 !received

let unlisted_nodes_are_isolated () =
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:4 (fun _ -> incr received);
  Geonet.Network.set_partition network [ [ 0; 1 ] ];
  Geonet.Network.send network ~src:0 ~dst:4 ();
  Geonet.Network.send network ~src:2 ~dst:4 ();
  run shard;
  check int "singleton groups" 0 !received

let reregistration_replaces_handler () =
  (* A recovering site re-registers; the fresh handler must win or stale
     closures over discarded state would keep receiving traffic. *)
  let shard, network = make () in
  let old_handler = ref 0 and new_handler = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr old_handler);
  Geonet.Network.register network ~node:1 (fun _ -> incr new_handler);
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "old handler silent" 0 !old_handler;
  check int "new handler receives" 1 !new_handler

let crash_while_partitioned_no_stale () =
  (* Messages sent at a site that is crashed behind a partition must not
     surface after both faults heal: the target was down at delivery
     time, so the sends are gone, not queued. *)
  let shard, network = make () in
  let received = ref 0 in
  Geonet.Network.register network ~node:3 (fun _ -> incr received);
  Geonet.Network.set_partition network [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  Geonet.Network.crash network 3;
  Geonet.Network.send network ~src:0 ~dst:3 ();
  Geonet.Network.send network ~src:4 ~dst:3 ();
  Geonet.Network.clear_partition network;
  run shard;
  check int "dropped while down" 0 !received;
  Geonet.Network.recover network 3;
  run shard;
  check int "nothing stale after recovery" 0 !received;
  Geonet.Network.send network ~src:0 ~dst:3 ();
  run shard;
  check int "fresh traffic flows" 1 !received

let one_way_cut_is_directional () =
  let shard, network = make () in
  let at_0 = ref 0 and at_3 = ref 0 in
  Geonet.Network.register network ~node:0 (fun _ -> incr at_0);
  Geonet.Network.register network ~node:3 (fun _ -> incr at_3);
  Geonet.Network.block_one_way network ~src:0 ~dst:3;
  check bool "cut direction closed" false (Geonet.Network.link_open network ~src:0 ~dst:3);
  check bool "reverse open" true (Geonet.Network.link_open network ~src:3 ~dst:0);
  let dropped_before = Geonet.Network.stats_dropped network in
  Geonet.Network.send network ~src:0 ~dst:3 ();
  Geonet.Network.send network ~src:3 ~dst:0 ();
  run shard;
  check int "cut direction blocked" 0 !at_3;
  check int "reverse delivered" 1 !at_0;
  check int "blocked send counted dropped" (dropped_before + 1)
    (Geonet.Network.stats_dropped network);
  Geonet.Network.unblock_one_way network ~src:0 ~dst:3;
  Geonet.Network.send network ~src:0 ~dst:3 ();
  run shard;
  check int "unblocked" 1 !at_3

let duplication_delivers_twice () =
  let shard, network = make ~drop:0.0 () in
  let received = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr received);
  Geonet.Network.set_duplicate_probability network 1.0;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "delivered twice" 2 !received;
  check int "duplication counted" 1 (Geonet.Network.stats_duplicated network);
  check int "one logical send" 1 (Geonet.Network.stats_sent network);
  Geonet.Network.set_duplicate_probability network 0.0;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "single again" 3 !received

let link_drop_override () =
  let shard, network = make ~drop:0.0 () in
  let at_1 = ref 0 and at_2 = ref 0 in
  Geonet.Network.register network ~node:1 (fun _ -> incr at_1);
  Geonet.Network.register network ~node:2 (fun _ -> incr at_2);
  Geonet.Network.set_link_drop network ~src:0 ~dst:1 (Some 1.0);
  for _ = 1 to 10 do
    Geonet.Network.send network ~src:0 ~dst:1 ();
    Geonet.Network.send network ~src:0 ~dst:2 ()
  done;
  run shard;
  check int "surged link loses all" 0 !at_1;
  check int "other link untouched" 10 !at_2;
  Geonet.Network.clear_link_overrides network;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  check int "override cleared" 1 !at_1

let latency_spike_delays_arrival () =
  let shard, network = make ~jitter:0.0 () in
  let arrived_at = ref nan in
  Geonet.Network.register network ~node:1 (fun _ ->
      arrived_at := Des.Engine.now (Des.Shard.engine shard 0));
  Geonet.Network.set_link_extra_latency network ~src:0 ~dst:1 250.0;
  Geonet.Network.send network ~src:0 ~dst:1 ();
  run shard;
  let base = Geonet.Network.latency_ms network ~src:0 ~dst:1 in
  check (Alcotest.float 1e-6) "base + spike" (base +. 250.0) !arrived_at

let fault_parameter_validation () =
  let invalid f = try f (); false with Invalid_argument _ -> true in
  let shard = one_lane () in
  let fresh () = create shard () in
  check bool "create rejects p > 1" true
    (invalid (fun () -> ignore (create shard ~drop_probability:1.5 ())));
  check bool "create rejects p < 0" true
    (invalid (fun () -> ignore (create shard ~drop_probability:(-0.1) ())));
  check bool "create rejects NaN drop" true
    (invalid (fun () -> ignore (create shard ~drop_probability:nan ())));
  check bool "create rejects negative jitter" true
    (invalid (fun () -> ignore (create shard ~jitter_fraction:(-0.5) ())));
  check bool "create rejects NaN jitter" true
    (invalid (fun () -> ignore (create shard ~jitter_fraction:nan ())));
  check bool "create rejects a node_lane/regions mismatch" true
    (invalid (fun () ->
         ignore
           (Geonet.Network.create shard ~node_lane:[| 0 |] ~seed:5L ~regions:(five ()) ())));
  check bool "set_drop_probability rejects NaN" true
    (invalid (fun () -> Geonet.Network.set_drop_probability (fresh ()) nan));
  check bool "set_drop_probability rejects 2.0" true
    (invalid (fun () -> Geonet.Network.set_drop_probability (fresh ()) 2.0));
  check bool "set_duplicate_probability rejects NaN" true
    (invalid (fun () -> Geonet.Network.set_duplicate_probability (fresh ()) nan));
  check bool "set_link_drop rejects out-of-range" true
    (invalid (fun () -> Geonet.Network.set_link_drop (fresh ()) ~src:0 ~dst:1 (Some 1.2)));
  check bool "set_link_extra_latency rejects negative" true
    (invalid (fun () ->
         Geonet.Network.set_link_extra_latency (fresh ()) ~src:0 ~dst:1 (-1.0)));
  (* In-range values still accepted. *)
  let network = fresh () in
  Geonet.Network.set_drop_probability network 0.5;
  Geonet.Network.set_link_drop network ~src:0 ~dst:1 (Some 0.0);
  Geonet.Network.set_link_drop network ~src:0 ~dst:1 None;
  check bool "valid values accepted" true (Geonet.Network.drop_probability network = 0.5)

(* Shared state (liveness, partitions, link overrides, probabilities) is
   read by every lane mid-window, so a mutation made from inside a window
   is refused; the same mutation as a barrier-aligned global is not. *)
let faults_only_between_windows () =
  let shard, network = make () in
  let mutations =
    [
      ("crash", fun () -> Geonet.Network.crash network 1);
      ("recover", fun () -> Geonet.Network.recover network 1);
      ("set_partition", fun () -> Geonet.Network.set_partition network [ [ 0; 1 ]; [ 2 ] ]);
      ("clear_partition", fun () -> Geonet.Network.clear_partition network);
      ("set_drop_probability", fun () -> Geonet.Network.set_drop_probability network 0.5);
      ( "set_duplicate_probability",
        fun () -> Geonet.Network.set_duplicate_probability network 0.5 );
      ( "set_link_drop",
        fun () -> Geonet.Network.set_link_drop network ~src:0 ~dst:1 (Some 1.0) );
      ( "set_link_extra_latency",
        fun () -> Geonet.Network.set_link_extra_latency network ~src:0 ~dst:1 5.0 );
      ("block_one_way", fun () -> Geonet.Network.block_one_way network ~src:0 ~dst:3);
      ("unblock_one_way", fun () -> Geonet.Network.unblock_one_way network ~src:0 ~dst:3);
      ("clear_link_overrides", fun () -> Geonet.Network.clear_link_overrides network);
    ]
  in
  let refused = ref [] and applied = ref [] in
  Des.Engine.schedule_at (Des.Shard.engine shard 0) ~time_ms:1.0 (fun () ->
      List.iter
        (fun (name, mutate) ->
          match mutate () with
          | () -> ()
          | exception Invalid_argument _ -> refused := name :: !refused)
        mutations);
  (* Mid-window refusals left the state alone. *)
  Des.Engine.schedule_at (Des.Shard.engine shard 0) ~time_ms:1.5 (fun () ->
      check bool "still up" true (Geonet.Network.is_up network 1);
      check bool "no partition" true (Geonet.Network.reachable network 0 2);
      check bool "loss unchanged" true (Geonet.Network.drop_probability network = 0.0));
  List.iteri
    (fun i (name, mutate) ->
      Des.Shard.schedule_global shard ~time_ms:(2.0 +. float_of_int i) (fun () ->
          mutate ();
          applied := name :: !applied))
    mutations;
  Des.Shard.schedule_global shard ~time_ms:2.0 (fun () ->
      check bool "crash at a barrier takes effect" false (Geonet.Network.is_up network 1));
  run shard;
  let names = List.map fst mutations in
  check (Alcotest.list Alcotest.string) "every mutation refused mid-window" names
    (List.rev !refused);
  check (Alcotest.list Alcotest.string) "every mutation applied at a barrier" names
    (List.rev !applied);
  check bool "link overrides cleared at the last barrier" true
    (Geonet.Network.link_open network ~src:0 ~dst:3);
  check bool "loss set at a barrier" true (Geonet.Network.drop_probability network = 0.5)

let suite =
  [
    Alcotest.test_case "region: rtt symmetric" `Quick region_symmetry;
    Alcotest.test_case "region: intra fast" `Quick region_intra_is_fast;
    Alcotest.test_case "region: name roundtrip" `Quick region_of_string_roundtrip;
    Alcotest.test_case "network: delivery with latency" `Quick delivery_with_latency;
    Alcotest.test_case "network: broadcast" `Quick broadcast_reaches_everyone;
    Alcotest.test_case "network: full loss" `Quick drops_lose_messages;
    Alcotest.test_case "network: statistical loss" `Quick drop_rate_statistical;
    Alcotest.test_case "network: crash target" `Quick crashed_node_receives_nothing;
    Alcotest.test_case "network: crash source" `Quick crashed_node_sends_nothing;
    Alcotest.test_case "network: partition" `Quick partition_blocks_cross_traffic;
    Alcotest.test_case "network: heal" `Quick heal_restores_traffic;
    Alcotest.test_case "network: partition at delivery time" `Quick partition_checked_at_delivery;
    Alcotest.test_case "network: unlisted nodes isolated" `Quick unlisted_nodes_are_isolated;
    Alcotest.test_case "network: re-registration replaces handler" `Quick
      reregistration_replaces_handler;
    Alcotest.test_case "network: crash behind partition leaves nothing stale" `Quick
      crash_while_partitioned_no_stale;
    Alcotest.test_case "network: one-way cut is directional" `Quick one_way_cut_is_directional;
    Alcotest.test_case "network: duplication delivers twice" `Quick duplication_delivers_twice;
    Alcotest.test_case "network: per-link drop override" `Quick link_drop_override;
    Alcotest.test_case "network: latency spike delays arrival" `Quick
      latency_spike_delays_arrival;
    Alcotest.test_case "network: fault parameter validation" `Quick fault_parameter_validation;
    Alcotest.test_case "network: faults only between windows" `Quick
      faults_only_between_windows;
  ]
