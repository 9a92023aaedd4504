(* The retry-storm scenario — the overload-resilience headline.

   One flash sale on one entity: a 5-site cluster holds the "sale" quota
   while an open-loop stream runs at base rate, spikes to several times
   the home site's CPU capacity for a few seconds, and — just before the
   sale opens — a partition cuts the hot entity's home region off from
   every peer, so every redistribution the spike triggers aborts against
   the dead links (tripping the circuit breaker) while the queue grows. Four client populations
   replay the identical stream: no retries, naive immediate retries,
   exponential backoff with jitter, and backoff against a cluster running
   the full overload-resilience stack (deadlines, the CoDel-style
   admission gate, the redistribution circuit breaker).

   The measured story is metastability: naive retries multiply the
   offered load by the attempt budget, so after the fault heals the
   effective arrival rate still exceeds the home site's capacity and
   goodput never recovers — the system is stuck in the bad equilibrium
   the fault created. The loop needs a trigger: at the heal, the home
   site's CPU backlog must already be longer than the client timeout, so
   that every attempt times out and is sent again. The spike builds that
   backlog: 2 000 req/s for 5 s at full scale, 3 000 req/s for the quick
   run's 2.5 s (at 2 000 req/s, 2.5 s leaves too short a backlog, and no
   attempt times out after the heal). Admission control sheds the excess
   for free (rejected-deadline replies cost no service time), which keeps
   the CPU backlog bounded and lets the same retrying clients drain back
   to steady state within seconds of the heal.

   The verdict compares each arm's post-heal goodput with its own
   pre-fault goodput. Quick mode is the CI smoke: the same shape on a
   half-length horizon. *)

type scale = {
  base_rate_per_s : float;
  spike_rate_per_s : float;
  spike_start_ms : float;
  spike_end_ms : float;
  partition_at_ms : float;
  partition_heal_ms : float;
  duration_ms : float;
  hold_ms : float;  (* grant lifetime: the driver's grant-driven release *)
  quota : int;  (* the sale entity's global maximum *)
  timeout_ms : float;  (* client patience per attempt *)
  pre_from_ms : float;  (* pre-fault goodput window: [pre_from, spike_start) *)
  post_from_ms : float;  (* post-heal goodput window: [post_from, duration) *)
}

let scale ~quick =
  let quick_scale =
    {
      base_rate_per_s = 600.0;
      spike_rate_per_s = 3_000.0;  (* see the header: the backlog at the heal *)
      spike_start_ms = 10_000.0;
      spike_end_ms = 12_500.0;
      partition_at_ms = 9_800.0;
      partition_heal_ms = 14_000.0;
      duration_ms = 30_000.0;
      hold_ms = 1_000.0;
      quota = 3_000;
      timeout_ms = 1_000.0;
      pre_from_ms = 5_000.0;
      post_from_ms = 20_000.0;
    }
  in
  if quick then quick_scale
  else
    {
      quick_scale with
      spike_rate_per_s = 2_000.0;
      spike_start_ms = 20_000.0;
      spike_end_ms = 25_000.0;
      partition_at_ms = 19_800.0;
      partition_heal_ms = 27_000.0;
      duration_ms = 60_000.0;
      pre_from_ms = 10_000.0;
      post_from_ms = 40_000.0;
    }

let n_sites = 5

let entity = "sale"

let home = 0

let home_affinity = 0.9

(* One jitter root for every arm: arms differ by policy, not by luck. *)
let jitter_seed = 7_767L

let naive_retry =
  {
    Driver.max_attempts = 4;
    base_backoff_ms = 0.0;
    max_backoff_ms = 0.0;
    jitter = 0.0;
    jitter_seed;
  }

let backoff_retry =
  { naive_retry with Driver.base_backoff_ms = 500.0; max_backoff_ms = 4_000.0; jitter = 0.5 }

let config ~scale:s ~admission =
  let base =
    {
      (Exp_common.samya_config Samya.Config.Majority) with
      (* One entity, reactive-only: the scenario is about overload, not
         forecasting. *)
      Samya.Config.prediction_enabled = false;
      (* A checkout reservation is cheap — 0.5 ms of CPU caps a site at
         2 000 req/s, so a 2 000 req/s spike (90% home-skewed, plus the
         release per grant) overloads the home site roughly 2x, and the
         quick run's 3 000 req/s roughly 3x, while the base load keeps it
         just above 50% busy. *)
      local_processing_ms = 0.5;
      (* Let the hot share chase the spike instead of parking requests
         for the default 2 s between redistributions. *)
      redistribution_cooldown_ms = 500.0;
    }
  in
  if admission then
    {
      base with
      Samya.Config.deadline_budget_ms = s.timeout_ms;
      admission =
        { Samya.Config.Admission.target_ms = 50.0; interval_ms = 100.0 };
      breaker = { Samya.Config.Breaker.threshold = 2; probe_ms = 2_000.0 };
    }
  else base

let requests ~scale:s =
  let rng = Des.Rng.stream Exp_common.seed 1013 in
  Trace.Workload.flash_sale ~rng ~entity ~home ~n_clients:n_sites
    ~base_rate_per_s:s.base_rate_per_s ~spike_rate_per_s:s.spike_rate_per_s
    ~spike_start_ms:s.spike_start_ms ~spike_end_ms:s.spike_end_ms
    ~duration_ms:s.duration_ms ~home_affinity ()

let recovery_at s c =
  let pre = Scenario.goodput c ~from_ms:s.pre_from_ms ~until_ms:s.spike_start_ms in
  let post = Scenario.goodput c ~from_ms:s.post_from_ms ~until_ms:s.duration_ms in
  let ratio = if pre > 0.0 then post /. pre else Float.nan in
  (pre, post, ratio)

let recovery ~quick = recovery_at (scale ~quick)

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

(* What the sites did to survive, read from the capture's cluster:
   sheds by cause, queue pressure, the breaker. *)
let resilience =
  let over fold f (c : Scenario.capture) =
    Array.fold_left (fun acc site -> fold acc (f site)) 0
      (Samya.Cluster.sites (Option.get c.cluster))
  in
  Scenario.
    [
      count "shed deadline" (over ( + ) Samya.Site.shed_deadline);
      count "shed admission" (over ( + ) Samya.Site.shed_admission);
      count "queue expired" (over ( + ) Samya.Site.shed_queue_expired);
      count "queue peak" (over max (Samya.Site.queue_peak ~entity));
      count "breaker trips" (over ( + ) (Samya.Site.breaker_trips ~entity));
    ]

(* Post-heal goodput against the arm's own pre-fault goodput. *)
let recovery_columns s =
  let col header f : Scenario.column = (header, fun c -> f (recovery_at s c)) in
  [
    col "pre-fault tps" (fun (pre, _, _) -> Report.f1 pre);
    col "post-heal tps" (fun (_, post, _) -> Report.f1 post);
    col "post/pre" (fun (_, _, ratio) -> pct ratio);
    col "verdict" (fun (_, _, ratio) ->
        if Float.is_nan ratio then "no pre-fault traffic"
        else if ratio < 0.5 then "METASTABLE"
        else if ratio >= 0.9 then "recovered"
        else "degraded");
  ]

let report s ~offered fmt (captures : Scenario.capture list) =
  Format.fprintf fmt
    "@.== retry storm: flash sale %.0f -> %.0f req/s (%.0f-%.0f s), home \
     region partitioned %.0f-%.0f s ==@."
    s.base_rate_per_s s.spike_rate_per_s
    (s.spike_start_ms /. 1000.0)
    (s.spike_end_ms /. 1000.0)
    (s.partition_at_ms /. 1000.0)
    (s.partition_heal_ms /. 1000.0);
  Report.kv fmt
    [
      ("entity / quota", Printf.sprintf "%s / %d tokens over %d sites" entity s.quota n_sites);
      ("home affinity", pct home_affinity);
      ("grant lifetime", Report.ms s.hold_ms);
      ("client timeout", Report.ms s.timeout_ms);
      ( "goodput windows",
        Printf.sprintf "pre-fault [%.0f, %.0f) s, post-heal [%.0f, %.0f) s"
          (s.pre_from_ms /. 1000.0)
          (s.spike_start_ms /. 1000.0)
          (s.post_from_ms /. 1000.0)
          (s.duration_ms /. 1000.0) );
    ];
  let clients = Scenario.label "clients" in
  (* Outcomes: what each client population experienced. *)
  Scenario.table fmt ~title:"retry storm: client outcomes"
    Scenario.
      [
        clients;
        count "offered" (fun _ -> offered);
        committed;
        rejected;
        shed;
        timed_out;
        retries;
        p50;
        p99;
      ]
    captures;
  Scenario.table fmt ~title:"retry storm: server-side resilience" (clients :: resilience)
    captures;
  (* The figure: committed throughput per arm — the metastable arm stays
     on the floor after the heal, the admission arm climbs back. *)
  Scenario.figure fmt ~title:"retry storm: committed throughput (figure)" captures;
  Scenario.table fmt ~title:"retry storm: recovery verdict" (clients :: recovery_columns s)
    captures;
  (* SLO with the abort-class breakdown: the same monitor as every other
     scenario, plus who-killed-it attribution. *)
  Scenario.slo_lines ~aborts:true fmt captures;
  (* Token conservation per arm, after the drain: shedding and retries
     must never mint or leak tokens. *)
  Scenario.conservation fmt captures;
  (* The always-on black box: what the watchdog caught without anyone
     re-running the workload with tracing on. One bundle is materialised
     for the resilient arm's first SLO breach — it names the breaching
     window, and its context events carry the breaker trips and sheds of
     the mid-spike partition. *)
  Scenario.table fmt ~title:"incident watchdog (flight recorder, DESIGN.md S16)"
    Scenario.[ clients; recorded; dropped; incidents; by_rule ]
    captures;
  match List.find_opt (fun (c : Scenario.capture) -> c.arm.id = "admission") captures with
  | None -> ()
  | Some c ->
      Format.fprintf fmt "@.black box (%s):@." c.arm.label;
      let first rule = List.find_opt (fun i -> i.Obs.Watchdog.i_rule = rule) c.incidents in
      (match first "slo-breach" with
      | None -> Format.fprintf fmt "  no SLO breach captured@."
      | Some incident ->
          let bundle =
            Obs.Watchdog.bundle ~hot:c.hot (Obs.Flight_recorder.events c.flight) incident
          in
          Format.fprintf fmt "  trigger: %s@." (Obs.Watchdog.incident_line incident);
          Format.fprintf fmt "  recent events at trigger:@.";
          List.iter
            (fun ev -> Format.fprintf fmt "    %s@." (Obs.Flight_recorder.line ev))
            bundle.Obs.Watchdog.b_events;
          let window =
            match bundle.Obs.Watchdog.b_hot_window with
            | Some start ->
                Printf.sprintf "window [%.0f s, %.0f s)" (start /. 1000.0)
                  ((start +. Obs.Slo.window_ms c.slo) /. 1000.0)
            | None -> "whole run"
          in
          Format.fprintf fmt "  hot keys in %s:%s@." window
            (String.concat ""
               (List.map
                  (fun (key, n) -> Printf.sprintf "  %s %d" key n)
                  bundle.Obs.Watchdog.b_hot)));
      Option.iter
        (fun trip ->
          Format.fprintf fmt "  first breaker trip: %s@." (Obs.Watchdog.incident_line trip))
        (first "breaker-trip")

let arm ~scale:s ~id ~label ?retry ?(admission = false) () : Scenario.arm =
  {
    id;
    label;
    name = Printf.sprintf "Samya flash sale (%s)" label;
    system = Samya (config ~scale:s ~admission);
    spec =
      (fun spec ->
        {
          spec with
          retry;
          deadline_budget_ms = (if admission then s.timeout_ms else infinity);
        });
  }

let plan ~quick : Scenario.plan =
  let s = scale ~quick in
  let requests = requests ~scale:s in
  {
    duration_ms = s.duration_ms;
    requests;
    entities = Hot { entity; maximum = s.quota };
    faults =
      (Chaos.Nemesis.spike_partition ~site:home ~n_sites ~at_ms:s.partition_at_ms
         ~heal_ms:s.partition_heal_ms ~duration_ms:s.duration_ms)
        .Chaos.Nemesis.faults;
    (* 2 s windows resolve the spike, the outage and the recovery ramp. *)
    window_ms = 2_000.0;
    sketch_k = 8;
    spec =
      (fun spec ->
        {
          spec with
          window_ms = 1_000.0;
          client_timeout_ms = s.timeout_ms;
          grant_driven_release_ms = Some s.hold_ms;
        });
    arms =
      [
        arm ~scale:s ~id:"none" ~label:"no retry" ();
        arm ~scale:s ~id:"naive" ~label:"naive immediate" ~retry:naive_retry ();
        arm ~scale:s ~id:"backoff" ~label:"backoff+jitter" ~retry:backoff_retry ();
        arm ~scale:s ~id:"admission" ~label:"backoff+admission" ~retry:backoff_retry
          ~admission:true ();
      ];
    (* The headline resilience arm: retries appear in the trace as linked
       attempts on one root and sheds as driver.shed counters. *)
    traced = [ "admission" ];
    report = report s ~offered:(Array.length requests);
  }

let scenario =
  {
    Scenario.id = "retrystorm";
    paper_artifact = "robustness ext.";
    description = "flash-sale overload: retry policies vs deadline/admission stack";
    plan = (fun _ctx ~quick -> plan ~quick);
  }
