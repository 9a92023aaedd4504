(* Tests for the Mechanism API and the adaptive contention controller:
   config validation (including the controller/amnesia cross-check), the
   pure hysteresis state machine (no flapping under an oscillating
   signal), end-to-end peer borrowing with token conservation, static
   and org-tier policy pins (a disabled controller is the static
   Redistribute pin), randomized conservation under mid-flight
   mechanism switches, and sharded byte-identity of the contention
   experiment. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entity = "hot"

let regions () = Array.of_list Geonet.Region.default_five

module C = Samya.Config.Controller

let with_controller ?(policy = C.Adaptive) config =
  {
    config with
    Samya.Config.controller = { C.default with C.enabled = true; policy };
  }

let make_cluster ?(policy = C.Adaptive) ?(config_f = fun c -> c) ?(seed = 42L)
    ?(maximum = 500) () =
  let config = config_f (with_controller ~policy Samya.Config.default) in
  (match Samya.Config.validate config with
  | Ok () -> ()
  | Error e -> Alcotest.failf "test config invalid: %s" e);
  let cluster = Samya.Cluster.create ~seed ~config ~regions:(regions ()) () in
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
(* Config validation *)

let config_rejects_bad_controller_knobs () =
  let bad f =
    let c = with_controller Samya.Config.default in
    match
      Samya.Config.validate
        { c with Samya.Config.controller = f c.Samya.Config.controller }
    with
    | Error _ -> true
    | Ok () -> false
  in
  check bool "window_ms = 0" true (bad (fun c -> { c with C.window_ms = 0.0 }));
  check bool "window_ms = nan" true
    (bad (fun c -> { c with C.window_ms = Float.nan }));
  check bool "escalate_contention = 0" true
    (bad (fun c -> { c with C.escalate_contention = 0.0 }));
  check bool "escalate_contention = 1.5" true
    (bad (fun c -> { c with C.escalate_contention = 1.5 }));
  check bool "deescalate_margin = 1" true
    (bad (fun c -> { c with C.deescalate_margin = 1.0 }));
  check bool "borrow_fail_escalate = 0" true
    (bad (fun c -> { c with C.borrow_fail_escalate = 0.0 }));
  check bool "p99_target_ms = 0" true
    (bad (fun c -> { c with C.p99_target_ms = 0.0 }));
  check bool "dwell_ms = -1" true (bad (fun c -> { c with C.dwell_ms = -1.0 }));
  check bool "dwell_ms = inf" true
    (bad (fun c -> { c with C.dwell_ms = infinity }));
  check bool "cooldown_ms = nan" true
    (bad (fun c -> { c with C.cooldown_ms = Float.nan }));
  check bool "borrow_quantum = -1" true
    (bad (fun c -> { c with C.borrow_quantum = -1 }));
  check bool "borrow_patience_ms = 0" true
    (bad (fun c -> { c with C.borrow_patience_ms = 0.0 }));
  check bool "defaults validate" true
    (Samya.Config.validate Samya.Config.default = Ok ());
  check bool "enabled controller validates" true
    (Samya.Config.validate (with_controller Samya.Config.default) = Ok ())

let config_rejects_controller_with_amnesia () =
  (* Borrow grants move tokens ledger-to-ledger without a durable-image
     write, so the controller refuses to run under crash-amnesia. *)
  let amnesiac =
    { (with_controller Samya.Config.default) with Samya.Config.amnesia_on_crash = true }
  in
  check bool "controller + amnesia rejected" true
    (match Samya.Config.validate amnesiac with Error _ -> true | Ok () -> false);
  check bool "amnesia alone fine" true
    (Samya.Config.validate
       { Samya.Config.default with Samya.Config.amnesia_on_crash = true }
    = Ok ())

(* ------------------------------------------------------------------ *)
(* The pure hysteresis state machine *)

let cfg = C.default

let sig_ ?(borrow_fail = 0.0) ?(p99 = 0.0) contention =
  { Samya.Controller.contention; borrow_fail; p99_ms = p99 }

let target ~current s = Samya.Controller.target ~cfg ~current s

let mech = Alcotest.testable (Fmt.of_to_string C.mechanism_name) ( = )

let hysteresis_escalates_one_tier () =
  check mech "escrow escalates to borrow" C.Borrow
    (target ~current:C.Escrow (sig_ cfg.C.escalate_contention));
  check mech "escrow never jumps to redistribute" C.Borrow
    (target ~current:C.Escrow (sig_ 1.0));
  check mech "borrow holds while borrowing works" C.Borrow
    (target ~current:C.Borrow (sig_ 1.0));
  check mech "borrow escalates on borrow failures" C.Redistribute
    (target ~current:C.Borrow
       (sig_ ~borrow_fail:cfg.C.borrow_fail_escalate 1.0));
  check mech "borrow escalates on slow waits" C.Redistribute
    (target ~current:C.Borrow (sig_ ~p99:(cfg.C.p99_target_ms +. 1.0) 1.0))

let hysteresis_band_prevents_flapping () =
  let esc = cfg.C.escalate_contention in
  let band = esc *. cfg.C.deescalate_margin in
  (* An oscillating signal inside the hysteresis band — above the
     de-escalation line, below the escalation line — must never move the
     mechanism, in either direction, no matter how long it oscillates. *)
  let inside = [ band; band +. 0.2 *. (esc -. band); esc -. 0.001; band ] in
  List.iteri
    (fun i contention ->
      check mech
        (Printf.sprintf "borrow holds inside the band (step %d)" i)
        C.Borrow
        (target ~current:C.Borrow (sig_ contention));
      check mech
        (Printf.sprintf "escrow holds inside the band (step %d)" i)
        C.Escrow
        (target ~current:C.Escrow (sig_ contention));
      check mech
        (Printf.sprintf "redistribute holds inside the band (step %d)" i)
        C.Redistribute
        (target ~current:C.Redistribute (sig_ contention)))
    inside;
  (* Below the band, each tier steps down exactly one. *)
  check mech "borrow de-escalates below the band" C.Escrow
    (target ~current:C.Borrow (sig_ (band /. 2.0)));
  check mech "redistribute de-escalates below the band" C.Borrow
    (target ~current:C.Redistribute (sig_ (band /. 2.0)));
  check mech "escrow stays escrow when idle" C.Escrow
    (target ~current:C.Escrow (sig_ 0.0))

(* ------------------------------------------------------------------ *)
(* End-to-end borrowing *)

let borrow_moves_tokens_and_conserves () =
  (* 500 tokens over 5 sites = 100 each. 150 one-token acquires through
     one region: the first ~100 are local escrow, the rest force the
     pinned Borrow mechanism to pull peer tokens. Everything must grant
     and the global ledger must still sum to the quota. *)
  let cluster = make_cluster ~policy:(C.Static C.Borrow) () in
  let granted = ref 0 and other = ref 0 in
  for i = 0 to 149 do
    submit_at cluster
      ~time_ms:(float_of_int i *. 2.0)
      ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:1 ())
      (fun response ->
        match response with
        | Samya.Types.Granted -> incr granted
        | _ -> incr other)
  done;
  drain cluster;
  check int "all 150 granted" 150 !granted;
  check int "no rejections" 0 !other;
  let stats = Samya.Cluster.aggregate_site_stats cluster in
  check bool "borrow conversations happened" true (stats.Samya.Site.borrows > 0);
  check bool "borrowed tokens moved" true (stats.Samya.Site.borrow_tokens >= 50);
  check bool "no consensus instances" true
    (stats.Samya.Site.redistributions_started = 0);
  check bool "borrowing site runs Borrow" true
    (Array.exists
       (fun site -> Samya.Site.mechanism site ~entity = Some C.Borrow)
       (Samya.Cluster.sites cluster));
  check bool "conservation" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:500 = Ok ())

(* ------------------------------------------------------------------ *)
(* Policy pins *)

let pins_override_site_policy () =
  let cluster = make_cluster () in
  (* An adaptive site policy, pinned per-entity to a static mechanism. *)
  Samya.Cluster.pin_policy cluster ~entity (C.Static C.Redistribute);
  Array.iter
    (fun site ->
      check bool "pinned mechanism everywhere" true
        (Samya.Site.mechanism site ~entity = Some C.Redistribute))
    (Samya.Cluster.sites cluster);
  (* Re-pinning adaptive resumes the state machine from the current
     mechanism rather than resetting — no token thrash on a re-pin. *)
  Samya.Cluster.pin_policy cluster ~entity C.Adaptive;
  check bool "adaptive pin resumes in place" true
    (Samya.Site.mechanism (Samya.Cluster.site cluster 0) ~entity
    = Some C.Redistribute);
  (* Unknown entities and disabled controllers are contract violations. *)
  check bool "unknown entity raises" true
    (try
       Samya.Cluster.pin_policy cluster ~entity:"nope" C.Adaptive;
       false
     with Invalid_argument _ -> true);
  let plain =
    Samya.Cluster.create ~seed:7L ~config:Samya.Config.default
      ~regions:(regions ()) ()
  in
  Samya.Cluster.init_entity plain ~entity ~maximum:100;
  check bool "disabled controller raises" true
    (try
       Samya.Cluster.pin_policy plain ~entity (C.Static C.Escrow);
       false
     with Invalid_argument _ -> true)

let org_tiers_pin_by_depth () =
  let cluster = make_cluster () in
  let org = Hierarchy.Org.create ~cluster ~org_name:"acme" ~root_limit:400 in
  let root = Hierarchy.Org.root org in
  let retail = Hierarchy.Org.add_unit org ~parent:root ~name:"retail" ~limit:200 () in
  let _grouping = Hierarchy.Org.add_unit org ~parent:root ~name:"ops" () in
  let clothing =
    Hierarchy.Org.add_unit org ~parent:retail ~name:"clothing" ~limit:50 ()
  in
  Hierarchy.Org.pin_contention_tiers org;
  let mechanism_of node =
    match Hierarchy.Org.limited_ancestors org node with
    | (_, e) :: _ -> Samya.Site.mechanism (Samya.Cluster.site cluster 0) ~entity:e
    | [] -> None
  in
  (* The root runs the adaptive state machine, which starts at escrow;
     a team limit is pinned to borrow; a deeper limit to escrow. *)
  check bool "root starts at escrow (adaptive)" true
    (mechanism_of root = Some C.Escrow);
  check bool "team tier pinned to borrow" true
    (mechanism_of retail = Some C.Borrow);
  check bool "leaf tier pinned to escrow" true
    (mechanism_of clothing = Some C.Escrow);
  (* Without a controller the tier pinning is a contract violation. *)
  let plain =
    Samya.Cluster.create ~seed:9L ~config:Samya.Config.default
      ~regions:(regions ()) ()
  in
  let org' = Hierarchy.Org.create ~cluster:plain ~org_name:"beta" ~root_limit:10 in
  check bool "disabled controller raises" true
    (try
       Hierarchy.Org.pin_contention_tiers org';
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* A disabled controller is the Static Redistribute pin *)

let disabled_equals_static_redistribute () =
  (* One skewed burst, run under the default config and under an enabled
     controller pinned to Redistribute: every observable count must
     match, since both send each shortfall through the same mechanism. *)
  let run config =
    let cluster = Samya.Cluster.create ~seed:11L ~config ~regions:(regions ()) () in
    Samya.Cluster.init_entity cluster ~entity ~maximum:2_000;
    let t_system =
      Facade.of_samya_cluster ~name:"pin" ~hooks:(Facade.samya_hooks ())
        ~regions:(regions ()) ~entity cluster
    in
    let requests =
      Trace.Workload.skew_ramp
        ~rng:(Des.Rng.create 23L)
        ~entity ~home:0 ~n_clients:5
        ~phases:
          [
            { Trace.Workload.until_ms = 1_500.0; rate_per_s = 100.0; home_affinity = 0.2 };
            { Trace.Workload.until_ms = 5_000.0; rate_per_s = 900.0; home_affinity = 0.9 };
          ]
        ()
    in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
           ~duration_ms:5_000.0)
        with
        Harness.Driver.drain_ms = 10_000.0;
        grant_driven_release_ms = Some 800.0;
      }
    in
    let r = Harness.Driver.run ~t_system spec in
    let site = Samya.Cluster.aggregate_site_stats cluster in
    let proto = Samya.Cluster.aggregate_protocol_stats cluster in
    let mech = Samya.Site.mechanism (Samya.Cluster.site cluster 0) ~entity in
    ( Printf.sprintf
        "committed=%d rejected=%d unavailable=%d shed=%d timed_out=%d \
         retries=%d no_reply=%d p50=%h p99=%h"
        r.Harness.Driver.committed r.Harness.Driver.rejected
        r.Harness.Driver.unavailable r.Harness.Driver.shed
        r.Harness.Driver.timed_out r.Harness.Driver.retries
        r.Harness.Driver.no_reply
        (Harness.Driver.percentile r 50.0)
        (Harness.Driver.percentile r 99.0),
      site,
      proto,
      mech )
  in
  let off_driver, off_site, off_proto, off_mech = run Samya.Config.default in
  let pin_driver, pin_site, pin_proto, _ =
    run (with_controller ~policy:(C.Static C.Redistribute) Samya.Config.default)
  in
  check bool "the burst triggers both kinds of redistribution" true
    (off_site.Samya.Site.reactive_triggers > 0
    && off_site.Samya.Site.proactive_triggers > 0);
  check bool "the burst rejects some acquires" true (off_site.Samya.Site.rejected > 0);
  check Alcotest.string "driver counters and p50/p99" off_driver pin_driver;
  check bool "aggregate site stats" true (off_site = pin_site);
  check bool "aggregate protocol stats" true (off_proto = pin_proto);
  check bool "disabled controller reports Redistribute" true
    (off_mech = Some C.Redistribute)

(* ------------------------------------------------------------------ *)
(* Conservation under mid-flight switches (randomized) *)

let conservation_under_switches =
  QCheck.Test.make ~count:6
    ~name:"controller: conservation under mid-flight switches"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      (* An aggressive controller (tiny window, no dwell/cooldown) over a
         bursty skewed stream: mechanisms switch while borrow
         conversations and redistributions are in flight. Whatever the
         interleaving, the global ledger must still sum to the quota. *)
      let rng = Des.Rng.create (Int64.of_int (3_000 + seed)) in
      let quota = 100 + Des.Rng.int rng 400 in
      let rate = 400.0 +. Des.Rng.float rng 1_200.0 in
      let config =
        {
          (with_controller Samya.Config.default) with
          Samya.Config.prediction_enabled = false;
          local_processing_ms = 0.2;
          redistribution_cooldown_ms = 300.0;
          controller =
            {
              C.default with
              C.enabled = true;
              window_ms = 100.0;
              dwell_ms = 0.0;
              cooldown_ms = 0.0;
              borrow_patience_ms = 200.0;
            };
        }
      in
      let cluster =
        Samya.Cluster.create ~seed:(Int64.of_int seed) ~config
          ~regions:(regions ()) ()
      in
      Samya.Cluster.init_entity cluster ~entity ~maximum:quota;
      let t_system =
        Facade.of_samya_cluster ~name:"switch-soak"
          ~hooks:(Facade.samya_hooks ()) ~regions:(regions ()) ~entity cluster
      in
      let requests =
        Trace.Workload.skew_ramp
          ~rng:(Des.Rng.create (Int64.of_int (91 + seed)))
          ~entity ~home:0 ~n_clients:5
          ~phases:
            [
              { Trace.Workload.until_ms = 1_500.0; rate_per_s = 100.0; home_affinity = 0.2 };
              { Trace.Workload.until_ms = 4_000.0; rate_per_s = rate; home_affinity = 0.9 };
              { Trace.Workload.until_ms = 6_000.0; rate_per_s = rate; home_affinity = 0.3 };
            ]
          ()
      in
      let spec =
        {
          (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
             ~duration_ms:6_000.0)
          with
          Harness.Driver.drain_ms = 10_000.0;
          grant_driven_release_ms = Some 500.0;
        }
      in
      let r = Harness.Driver.run ~t_system spec in
      if r.Harness.Driver.committed = 0 then
        QCheck.Test.fail_reportf "seed %d: nothing committed" seed;
      let stats = Samya.Cluster.aggregate_site_stats cluster in
      if stats.Samya.Site.mechanism_switches = 0 then
        QCheck.Test.fail_reportf "seed %d: controller never switched" seed;
      (match Samya.Cluster.check_invariant cluster ~entity ~maximum:quota with
      | Ok () -> ()
      | Error reason ->
          QCheck.Test.fail_reportf "seed %d (quota %d): %s" seed quota reason);
      true)

(* ------------------------------------------------------------------ *)
(* The contention experiment: sharded byte-identity *)

let contention_engine_jobs_identical () =
  (* The adaptive arm — borrow conversations, controller switches,
     per-phase accounting — must reproduce byte-identically at any
     --engine-jobs setting. *)
  let plan = Harness.Exp_contention.plan ~quick:true in
  let arm = Harness.Scenario.arm plan "adaptive" in
  let fingerprint engine_jobs =
    let c = Harness.Scenario.capture ~engine_jobs plan arm in
    let r = c.Harness.Scenario.result in
    Format.asprintf "%d/%d/%d/%d p50=%.4f borrows=%d switches=%d final=%s %a slo=%a"
      r.Harness.Driver.committed r.Harness.Driver.rejected
      r.Harness.Driver.timed_out r.Harness.Driver.no_reply
      (Harness.Driver.percentile r 50.0)
      c.Harness.Scenario.stats.Harness.Systems.borrows
      c.Harness.Scenario.stats.Harness.Systems.mechanism_switches
      (Harness.Exp_contention.final_mechanism c)
      (Format.pp_print_list (fun fmt (v : Harness.Exp_contention.phase_row) ->
           Format.fprintf fmt "%s:%.3f/%.4f" v.Harness.Exp_contention.v_name
             v.Harness.Exp_contention.v_tps v.Harness.Exp_contention.v_p99))
      (Harness.Exp_contention.phase_rows ~quick:true c)
      (Format.pp_print_list (fun fmt (l : Obs.Slo.report_line) ->
           Format.fprintf fmt "%s:%d/%d" l.Obs.Slo.name l.Obs.Slo.violations
             l.Obs.Slo.windows))
      (Obs.Slo.report c.Harness.Scenario.slo)
  in
  let one = fingerprint 1 in
  check Alcotest.string "engine-jobs 2 = 1" one (fingerprint 2);
  check Alcotest.string "engine-jobs 4 = 1" one (fingerprint 4)

let suite =
  [
    Alcotest.test_case "config: controller knob validation" `Quick
      config_rejects_bad_controller_knobs;
    Alcotest.test_case "config: controller rejects amnesia" `Quick
      config_rejects_controller_with_amnesia;
    Alcotest.test_case "hysteresis: escalates one tier" `Quick
      hysteresis_escalates_one_tier;
    Alcotest.test_case "hysteresis: band prevents flapping" `Quick
      hysteresis_band_prevents_flapping;
    Alcotest.test_case "borrow: moves tokens, conserves" `Quick
      borrow_moves_tokens_and_conserves;
    Alcotest.test_case "pins: override site policy" `Quick
      pins_override_site_policy;
    Alcotest.test_case "pins: org tiers by depth" `Quick org_tiers_pin_by_depth;
    Alcotest.test_case "pins: disabled controller = static redistribute" `Quick
      disabled_equals_static_redistribute;
    QCheck_alcotest.to_alcotest conservation_under_switches;
    Alcotest.test_case "contention: engine-jobs byte-identical" `Slow
      contention_engine_jobs_identical;
  ]
