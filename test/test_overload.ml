(* Tests for the overload-resilience stack: deadline propagation and
   dead-on-arrival shedding, the CoDel-style admission gate, queue-entry
   expiry, the redistribution circuit breaker, the stale-accept-leader
   unwedge, retrying clients (backoff, jitter, release semantics, timeout
   attribution), the flash-sale workload and targeted-partition
   generators, and conservation under shedding. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entity = "VM"

let regions () = Array.of_list Geonet.Region.default_five

let make_cluster ?(config_f = fun c -> c) ?(seed = 42L) ?(maximum = 5_000) () =
  let config = config_f Samya.Config.default in
  let cluster = Samya.Cluster.create ~seed ~config ~regions:(regions ()) () in
  Samya.Cluster.init_entity cluster ~entity ~maximum;
  cluster

(* Client work is scheduled on the client region's lane; faults go
   through barrier-aligned globals. *)
let submit_at cluster ~time_ms ~region request callback =
  Des.Engine.schedule_at
    (Samya.Cluster.engine_of_region cluster region)
    ~time_ms
    (fun () -> Samya.Cluster.submit cluster ~region request ~reply:callback)

let drain ?(extra = 120_000.0) cluster =
  Samya.Cluster.run_until cluster ~until_ms:(Samya.Cluster.now cluster +. extra)

let sum_sites cluster f =
  Array.fold_left (fun acc site -> acc + f site) 0 (Samya.Cluster.sites cluster)

(* ------------------------------------------------------------------ *)
(* Config and request validation *)

let config_rejects_bad_overload_knobs () =
  let bad f =
    match Samya.Config.validate (f Samya.Config.default) with
    | Error _ -> true
    | Ok () -> false
  in
  check bool "deadline_budget_ms = 0" true
    (bad (fun c -> { c with Samya.Config.deadline_budget_ms = 0.0 }));
  check bool "deadline_budget_ms = nan" true
    (bad (fun c -> { c with Samya.Config.deadline_budget_ms = Float.nan }));
  let adm c f =
    { c with Samya.Config.admission = f c.Samya.Config.admission }
  in
  let brk c f = { c with Samya.Config.breaker = f c.Samya.Config.breaker } in
  check bool "admission.target_ms = -1" true
    (bad (fun c ->
         adm c (fun a -> { a with Samya.Config.Admission.target_ms = -1.0 })));
  check bool "admission.target_ms = nan" true
    (bad (fun c ->
         adm c (fun a ->
             { a with Samya.Config.Admission.target_ms = Float.nan })));
  check bool "admission.interval_ms = 0" true
    (bad (fun c ->
         adm c (fun a -> { a with Samya.Config.Admission.interval_ms = 0.0 })));
  check bool "breaker.threshold = -1" true
    (bad (fun c ->
         brk c (fun b -> { b with Samya.Config.Breaker.threshold = -1 })));
  check bool "breaker.probe_ms = 0" true
    (bad (fun c ->
         brk c (fun b -> { b with Samya.Config.Breaker.probe_ms = 0.0 })));
  check bool "breaker.probe_ms = nan" true
    (bad (fun c ->
         brk c (fun b -> { b with Samya.Config.Breaker.probe_ms = Float.nan })));
  check bool "defaults validate" true
    (Samya.Config.validate Samya.Config.default = Ok ())

let config_rejects_degenerate_timings () =
  (* Every protocol timer lands on the event heap, which does not check
     times: a NaN there silently breaks heap order. *)
  let module C = Samya.Config in
  let cases =
    [
      ("election_timeout_ms", { C.default with C.election_timeout_ms = Float.nan });
      ("accept_timeout_ms", { C.default with C.accept_timeout_ms = Float.nan });
      ("cohort_timeout_ms", { C.default with C.cohort_timeout_ms = Float.nan });
      ("cohort_timeout_ms", { C.default with C.cohort_timeout_ms = infinity });
      ("local_processing_ms", { C.default with C.local_processing_ms = Float.nan });
      ("local_processing_ms", { C.default with C.local_processing_ms = infinity });
      ("status_retry_ms", { C.default with C.status_retry_ms = 0.0 });
      ("status_retry_ms", { C.default with C.status_retry_ms = Float.nan });
      ( "redistribution_cooldown_ms",
        { C.default with C.redistribution_cooldown_ms = -5.0 } );
      ( "redistribution_cooldown_ms",
        { C.default with C.redistribution_cooldown_ms = Float.nan } );
    ]
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (field, config) ->
      match C.validate config with
      | Ok () -> Alcotest.failf "%s: degenerate value accepted" field
      | Error reason ->
          check bool
            (Printf.sprintf "%s named with its value: %s" field reason)
            true
            (contains reason field && contains reason "(got "))
    cases

let request_rejects_nan_deadline () =
  let nan_req = Samya.Types.acquire ~deadline_ms:Float.nan ~entity ~amount:1 () in
  check bool "nan deadline rejected" true
    (match Samya.Types.validate nan_req with Error _ -> true | Ok () -> false);
  check bool "finite deadline fine" true
    (Samya.Types.validate (Samya.Types.acquire ~deadline_ms:5.0 ~entity ~amount:1 ())
    = Ok ())

(* ------------------------------------------------------------------ *)
(* Deadline propagation and shedding *)

let dead_on_arrival_is_shed () =
  let cluster = make_cluster () in
  let response = ref None in
  (* Deadline 100 ms, submitted at t = 1 s: already dead when it reaches
     the site; it must be shed without touching the ledger. *)
  submit_at cluster ~time_ms:1_000.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.acquire ~deadline_ms:100.0 ~entity ~amount:10 ())
    (fun r -> response := Some r);
  drain cluster;
  check bool "rejected for deadline" true (!response = Some Samya.Types.Rejected_deadline);
  check int "counted as deadline shed" 1 (sum_sites cluster Samya.Site.shed_deadline);
  check int "no tokens moved" 0
    (Samya.Cluster.total_acquired cluster ~entity);
  (* Reads shed too. *)
  let read_response = ref None in
  submit_at cluster ~time_ms:2_000.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.read ~deadline_ms:1.0 ~entity ())
    (fun r -> read_response := Some r);
  drain cluster;
  check bool "read shed" true (!read_response = Some Samya.Types.Rejected_deadline)

let queued_entry_expires_unreplayed () =
  (* Reactive-only, with a queue budget far below one protocol round:
     a request parked behind a redistribution must be discarded with
     [Rejected_deadline] when its effective deadline passes, not served
     late at drain. *)
  let cluster =
    make_cluster
      ~config_f:(fun c ->
        {
          c with
          Samya.Config.prediction_enabled = false;
          deadline_budget_ms = 50.0;
        })
      ()
  in
  (* Exhaust site 0's share so the next acquire triggers an instance. *)
  submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.acquire ~entity ~amount:1_000 ())
    ignore;
  let response = ref None in
  let reply_time = ref Float.nan in
  let engine = Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1 in
  submit_at cluster ~time_ms:1_000.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.acquire ~entity ~amount:10 ())
    (fun r ->
      response := Some r;
      reply_time := Des.Engine.now engine);
  drain cluster;
  check bool "queue expiry rejects" true
    (!response = Some Samya.Types.Rejected_deadline);
  check bool "expired entries counted" true
    (sum_sites cluster Samya.Site.shed_queue_expired >= 1);
  check bool "queue depth gauge saw it" true
    (Array.exists
       (fun site -> Samya.Site.queue_peak site ~entity >= 1)
       (Samya.Cluster.sites cluster));
  (* The expired entry never consumed tokens. *)
  check int "only the exhausting acquire holds tokens" 1_000
    (Samya.Cluster.total_acquired cluster ~entity);
  check bool "conservation" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

let admission_gate_sheds_and_recovers () =
  (* Slow CPU and a 5 ms backlog target: a dense burst must trip the gate
     into drop mode (shedding acquires for free) and the gate must close
     again once the backlog drains below target/2. *)
  let cluster =
    make_cluster
      ~config_f:(fun c ->
        {
          c with
          Samya.Config.prediction_enabled = false;
          local_processing_ms = 1.0;
          admission =
            { Samya.Config.Admission.target_ms = 5.0; interval_ms = 20.0 };
        })
      ()
  in
  let granted = ref 0 and shed = ref 0 in
  for i = 0 to 399 do
    (* 2 arrivals per ms against 1 ms/request of CPU: backlog grows 0.5 ms
       per arrival, passing the 5 ms target around the 20th request. *)
    submit_at cluster
      ~time_ms:(float_of_int i *. 0.5)
      ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:1 ())
      (function
        | Samya.Types.Granted -> incr granted
        | Samya.Types.Rejected_deadline -> incr shed
        | _ -> ())
  done;
  drain cluster;
  check bool "early requests granted" true (!granted > 0);
  check bool "overload shed" true (!shed > 0);
  check int "sheds counted" !shed (sum_sites cluster Samya.Site.shed_admission);
  check bool "gate closed after drain" true
    (Array.for_all
       (fun site -> not (Samya.Site.admission_dropping site))
       (Samya.Cluster.sites cluster));
  check bool "conservation under shedding" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let breaker_opens_and_reprobes () =
  let cluster =
    make_cluster
      ~config_f:(fun c ->
        {
          c with
          Samya.Config.prediction_enabled = false;
          redistribution_cooldown_ms = 500.0;
          breaker = { Samya.Config.Breaker.threshold = 2; probe_ms = 3_000.0 };
        })
      ()
  in
  (* Cut site 0 off, then drive it into famine: every redistribution
     attempt aborts, and after 2 consecutive aborts the breaker opens. *)
  Samya.Cluster.schedule_global cluster ~time_ms:0.0 (fun () ->
      Samya.Cluster.partition cluster [ [ 0 ]; [ 1; 2; 3; 4 ] ]);
  submit_at cluster ~time_ms:10.0 ~region:Geonet.Region.Us_west1
    (Samya.Types.acquire ~entity ~amount:1_000 ())
    ignore;
  let rejections = ref 0 in
  for i = 0 to 59 do
    submit_at cluster
      ~time_ms:(1_000.0 +. (float_of_int i *. 500.0))
      ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:50 ())
      (function Samya.Types.Rejected -> incr rejections | _ -> ())
  done;
  drain ~extra:40_000.0 cluster;
  let site0 = Samya.Cluster.site cluster 0 in
  check bool "breaker tripped" true (Samya.Site.breaker_trips site0 ~entity >= 1);
  check bool "requests failed fast" true (!rejections > 0);
  (* Heal and wait past the probe window: the breaker's half-open probe
     must let a redistribution through and close on success. *)
  Samya.Cluster.schedule_global cluster
    ~time_ms:(Samya.Cluster.now cluster +. 1.0)
    (fun () -> Samya.Cluster.heal cluster);
  let healed_reply = ref None in
  submit_at cluster
    ~time_ms:(Samya.Cluster.now cluster +. 4_000.0)
    ~region:Geonet.Region.Us_west1
    (Samya.Types.acquire ~entity ~amount:50 ())
    (fun r -> healed_reply := Some r);
  drain ~extra:60_000.0 cluster;
  check bool "post-heal acquire granted" true
    (!healed_reply = Some Samya.Types.Granted);
  check bool "breaker closed" true (not (Samya.Site.breaker_open site0 ~entity));
  check bool "conservation" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

(* ------------------------------------------------------------------ *)
(* Stale accept-phase leader unwedge (the retry-storm liveness fix) *)

let stale_accept_leader_unwedges () =
  (* Partition the home site at the exact moment it constructs a value
     (entering the accept phase): the cohort times out and recovers
     behind its back. Before the Election_reject NACK, the stale leader
     re-sent its accept forever and its entity stayed exposed — parked
     requests never got a reply.

     A sharded network refuses shared-state changes mid-window, so the
     cut cannot be made from inside the protocol callback. The run is
     deterministic, so two passes make the same cut: pass one records
     the instant site 0 first constructs a value, pass two partitions
     at a barrier right after that instant (a global at the instant
     itself would run before the promise delivery that triggers the
     construction, and drop it). *)
  let config =
    {
      Samya.Config.default with
      Samya.Config.prediction_enabled = false;
      redistribution_cooldown_ms = 500.0;
    }
  in
  let run ~cut_at =
    let constructed_at = ref None in
    let cluster_ref = ref None in
    let cluster =
      Samya.Cluster.create ~seed:42L ~config ~regions:(regions ())
        ~on_protocol_event:(fun ~site ~entity:_ ev ->
          match (ev, !cluster_ref, !constructed_at) with
          | Samya.Avantan_core.Value_constructed _, Some c, None when site = 0 ->
              (* Runs on site 0's lane: its engine clock is the event's. *)
              constructed_at :=
                Some
                  (Des.Engine.now
                     (Samya.Cluster.engine_of_region c Geonet.Region.Us_west1))
          | _ -> ())
        ()
    in
    cluster_ref := Some cluster;
    Samya.Cluster.init_entity cluster ~entity ~maximum:5_000;
    submit_at cluster ~time_ms:0.0 ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:1_000 ())
      ignore;
    let response = ref None in
    submit_at cluster ~time_ms:1_000.0 ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:50 ())
      (fun r -> response := Some r);
    Option.iter
      (fun t ->
        Samya.Cluster.schedule_global cluster ~time_ms:(Float.succ t) (fun () ->
            Samya.Cluster.partition cluster [ [ 0 ]; [ 1; 2; 3; 4 ] ]);
        Samya.Cluster.schedule_global cluster ~time_ms:20_000.0 (fun () ->
            Samya.Cluster.heal cluster))
      cut_at;
    drain ~extra:200_000.0 cluster;
    (cluster, !constructed_at, !response)
  in
  let _, first, _ = run ~cut_at:None in
  let cut_at =
    match first with
    | Some t -> t
    | None -> Alcotest.fail "site 0 never constructed a value"
  in
  check bool "partition lands before the heal" true (cut_at < 20_000.0);
  let cluster, constructed_at, response = run ~cut_at:(Some cut_at) in
  check bool "partition was injected mid-accept" true
    (constructed_at = Some cut_at);
  check bool "parked request eventually answered" true (response <> None);
  check int "no request left parked" 0
    (sum_sites cluster (fun s -> Samya.Site.queued s ~entity));
  check bool "conservation across the superseded instance" true
    (Samya.Cluster.check_invariant cluster ~entity ~maximum:5_000 = Ok ())

(* ------------------------------------------------------------------ *)
(* Driver: retry policies, timeout attribution, spec validation *)

let req time_ms site kind amount =
  { Trace.Workload.time_ms; site; kind; amount; entity = "" }

let driver_system ?(config = Samya.Config.default) ?(maximum = 5_000) () =
  Harness.Systems.samya ~seed:3L ~config ~regions:(regions ())
    ~entity ~maximum ()

let driver_spec_validation_raises () =
  let t_system = driver_system () in
  let requests = [| req 0.0 0 Trace.Workload.Acquire 1 |] in
  let base =
    Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
      ~duration_ms:1_000.0
  in
  let raises spec =
    try
      ignore (Harness.Driver.run ~t_system spec);
      false
    with Invalid_argument _ -> true
  in
  let retry r = { base with Harness.Driver.retry = Some r } in
  let ok_retry =
    {
      Harness.Driver.max_attempts = 2;
      base_backoff_ms = 1.0;
      max_backoff_ms = 2.0;
      jitter = 0.0;
      jitter_seed = 1L;
    }
  in
  check bool "deadline_budget_ms = 0" true
    (raises { base with Harness.Driver.deadline_budget_ms = 0.0 });
  check bool "deadline_budget_ms = nan" true
    (raises { base with Harness.Driver.deadline_budget_ms = Float.nan });
  check bool "max_attempts = 0" true
    (raises (retry { ok_retry with Harness.Driver.max_attempts = 0 }));
  check bool "base_backoff_ms = -1" true
    (raises (retry { ok_retry with Harness.Driver.base_backoff_ms = -1.0 }));
  check bool "base_backoff_ms = nan" true
    (raises (retry { ok_retry with Harness.Driver.base_backoff_ms = Float.nan }));
  check bool "max_backoff_ms < base" true
    (raises (retry { ok_retry with Harness.Driver.max_backoff_ms = 0.5 }));
  check bool "jitter = 1" true
    (raises (retry { ok_retry with Harness.Driver.jitter = 1.0 }));
  check bool "jitter = nan" true
    (raises (retry { ok_retry with Harness.Driver.jitter = Float.nan }))

let retrying_clients_resubmit_but_not_releases () =
  (* 400 ms of CPU per request against a 100 ms client timeout: every
     attempt times out. Acquires retry up to the attempt budget; the
     (late-granted) acquire's release must NOT retry — a doubled release
     would mint tokens. *)
  let config =
    { Samya.Config.default with Samya.Config.local_processing_ms = 400.0 }
  in
  let t_system = driver_system ~config () in
  let requests =
    [| req 0.0 0 Trace.Workload.Acquire 1; req 5_000.0 0 Trace.Workload.Release 1 |]
  in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
         ~duration_ms:10_000.0)
      with
      Harness.Driver.drain_ms = 20_000.0;
      client_timeout_ms = 100.0;
      retry =
        Some
          {
            Harness.Driver.max_attempts = 3;
            base_backoff_ms = 10.0;
            max_backoff_ms = 40.0;
            jitter = 0.0;
            jitter_seed = 9L;
          };
    }
  in
  let r = Harness.Driver.run ~t_system spec in
  check int "nothing committed inside the timeout" 0 r.Harness.Driver.committed;
  check int "both terminal outcomes are timeouts" 2 r.Harness.Driver.timed_out;
  (* Only the acquire retried: attempts 2 and 3. The release stopped at
     one attempt. *)
  check int "acquire retried twice, release never" 2 r.Harness.Driver.retries;
  check bool "all replies eventually arrived" true (r.Harness.Driver.no_reply = 0);
  check bool "invariant (late grant + single release)" true
    (t_system.Harness.Systems.invariant ~maximum:5_000 = Ok ())

let retry_keeps_the_first_deadline () =
  (* The driver stamps [first_sent + deadline_budget_ms] once, at the
     request's first send, and every retry resends that stamp: the budget
     bounds the request, not each attempt. With the budget equal to the
     client timeout, a retry that follows a timeout is past its deadline
     before it is sent, so the site sheds it on arrival — here both
     retries of an acquire whose first attempt waits 400 ms for the CPU. *)
  let config =
    { Samya.Config.default with Samya.Config.local_processing_ms = 400.0 }
  in
  let t_system = driver_system ~config () in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:(regions ())
         ~requests:[| req 0.0 0 Trace.Workload.Acquire 1 |]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.drain_ms = 5_000.0;
      client_timeout_ms = 100.0;
      deadline_budget_ms = 100.0;
      retry =
        Some
          {
            Harness.Driver.max_attempts = 3;
            base_backoff_ms = 10.0;
            max_backoff_ms = 10.0;
            jitter = 0.0;
            jitter_seed = 1L;
          };
    }
  in
  let r = Harness.Driver.run ~t_system spec in
  check int "attempt 1 timed out, then two retries" 2 r.Harness.Driver.retries;
  check int "the request ends shed, not timed out" 1 r.Harness.Driver.shed;
  check int "no timeout is the terminal outcome" 0 r.Harness.Driver.timed_out;
  check int "nothing committed" 0 r.Harness.Driver.committed;
  check bool "invariant (the first attempt's late grant)" true
    (t_system.Harness.Systems.invariant ~maximum:5_000 = Ok ())

let superseded_attempt_books_tokens_but_is_not_counted () =
  (* A stub system that answers the first acquire after the client
     timeout and the second in time. Attempt 1 times out at 100 ms and
     attempt 2 goes out at 110 ms; attempt 1's late grant lands at 115 ms,
     while attempt 2 is still in flight, and attempt 2's at 130 ms. The
     late grant belongs to a superseded attempt: it must neither settle
     nor be counted, but its tokens are real, so its grant-driven release
     must still be issued. *)
  let engine = Des.Engine.create () in
  let acquires = ref 0 and releases = ref 0 and held = ref 0 in
  let answer ~delay_ms reply =
    Des.Engine.schedule engine ~delay_ms (fun () -> reply Samya.Types.Granted)
  in
  let t_system : Harness.Systems.facade =
    {
      name = "stub";
      now = (fun () -> Des.Engine.now engine);
      sched_region = (fun _ -> engine);
      schedule_global = (fun ~time_ms f -> Des.Engine.schedule_at engine ~time_ms f);
      run_until = (fun until_ms -> Des.Engine.run engine ~until_ms);
      entity;
      arrival_ms = (fun ~region:_ ~issue_ms -> issue_ms);
      arrive = (fun ~region:_ ~issue_ms:_ -> ());
      submit =
        (fun ~region:_ request ~reply ->
          match request with
          | Samya.Types.Acquire { amount; _ } ->
              incr acquires;
              held := !held + amount;
              answer ~delay_ms:(if !acquires = 1 then 115.0 else 20.0) reply
          | Samya.Types.Release { amount; _ } ->
              incr releases;
              held := !held - amount;
              answer ~delay_ms:10.0 reply
          | Samya.Types.Read _ -> reply Samya.Types.Rejected);
      crash_site = ignore;
      recover_site = ignore;
      partition = ignore;
      heal = ignore;
      stats =
        (fun () ->
          {
            Harness.Systems.redistributions = 0;
            borrows = 0;
            borrow_tokens = 0;
            mechanism_switches = 0;
            messages_sent = 0;
            messages_delivered = 0;
            messages_dropped = 0;
          });
      subscribe = (fun () -> invalid_arg "stub: no observability");
      arm = ignore;
      invariant =
        (fun ~maximum ->
          if !held >= 0 && !held <= maximum then Ok ()
          else Error (Printf.sprintf "%d tokens held" !held));
    }
  in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:(regions ())
         ~requests:[| req 0.0 0 Trace.Workload.Acquire 1 |]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.drain_ms = 5_000.0;
      client_timeout_ms = 100.0;
      grant_driven_release_ms = Some 500.0;
      retry =
        Some
          {
            Harness.Driver.max_attempts = 3;
            base_backoff_ms = 10.0;
            max_backoff_ms = 10.0;
            jitter = 0.0;
            jitter_seed = 1L;
          };
      (* Phase 0 holds the acquire alone: the releases are first sent
         after 600 ms. *)
      phases = [| 50.0 |];
    }
  in
  let r = Harness.Driver.run ~t_system spec in
  check int "two acquire attempts reached the system" 2 !acquires;
  check int "the acquire committed once" 1
    r.Harness.Driver.by_phase.(0).Harness.Driver.p_committed;
  check int "nothing else in the acquire's phase" 0
    r.Harness.Driver.by_phase.(0).Harness.Driver.p_aborted;
  check (Alcotest.float 1e-9) "settled by attempt 2's grant" 130.0
    (Stats.Sample_set.max_value
       r.Harness.Driver.by_phase.(0).Harness.Driver.p_latencies);
  (* The driver counts a granted release as a commit too. *)
  check int "committed: the acquire and its two releases" 3
    r.Harness.Driver.committed;
  check int "one retry" 1 r.Harness.Driver.retries;
  check int "the superseded attempt is not a timeout" 0 r.Harness.Driver.timed_out;
  check int "every attempt replied" 0 r.Harness.Driver.no_reply;
  check int "both grants released" 2 !releases;
  check bool "invariant (every granted token returned)" true
    (!held = 0 && t_system.Harness.Systems.invariant ~maximum:1 = Ok ())

let retry_backoff_is_deterministic () =
  (* Same seed, same spec: jittered retry schedules must reproduce
     byte-identically (the per-client streams are drawn lane-locally). *)
  let run () =
    let config =
      { Samya.Config.default with Samya.Config.local_processing_ms = 400.0 }
    in
    let t_system = driver_system ~config () in
    let requests =
      Array.init 20 (fun i ->
          req (float_of_int i *. 100.0) (i mod 5) Trace.Workload.Acquire 1)
    in
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
           ~duration_ms:10_000.0)
        with
        Harness.Driver.drain_ms = 30_000.0;
        client_timeout_ms = 100.0;
        retry =
          Some
            {
              Harness.Driver.max_attempts = 3;
              base_backoff_ms = 50.0;
              max_backoff_ms = 400.0;
              jitter = 0.5;
              jitter_seed = 77L;
            };
      }
    in
    let r = Harness.Driver.run ~t_system spec in
    Printf.sprintf "%d/%d/%d/%d" r.Harness.Driver.committed
      r.Harness.Driver.timed_out r.Harness.Driver.retries r.Harness.Driver.no_reply
  in
  let a = run () in
  check Alcotest.string "identical reruns" a (run ());
  check bool "retries happened" true
    (match String.split_on_char '/' a with
    | [ _; _; retries; _ ] -> int_of_string retries > 0
    | _ -> false)

let timeouts_attributed_in_slo () =
  (* Satellite: abandoned attempts must show up as "timeout" aborts in
     the SLO breakdown, not vanish into no-reply. *)
  let config =
    { Samya.Config.default with Samya.Config.local_processing_ms = 400.0 }
  in
  let t_system = driver_system ~config () in
  let requests =
    Array.init 5 (fun i -> req (float_of_int i *. 500.0) 0 Trace.Workload.Acquire 1)
  in
  let slo = Obs.Slo.create () in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
         ~duration_ms:5_000.0)
      with
      Harness.Driver.drain_ms = 20_000.0;
      client_timeout_ms = 100.0;
      slo = Some slo;
      retry =
        Some
          {
            Harness.Driver.max_attempts = 2;
            base_backoff_ms = 10.0;
            max_backoff_ms = 10.0;
            jitter = 0.0;
            jitter_seed = 5L;
          };
    }
  in
  let r = Harness.Driver.run ~t_system spec in
  check int "all timed out" 5 r.Harness.Driver.timed_out;
  check bool "slo attributes the class" true
    (List.assoc_opt "timeout" (Obs.Slo.abort_classes slo) = Some 5)

(* A one-engine stub whose acquires are answered [Granted] after
   [delay_ms request], for driver tests that need exact reply times. *)
let timed_stub engine ~delay_ms : Harness.Systems.facade =
  {
    name = "stub";
    now = (fun () -> Des.Engine.now engine);
    sched_region = (fun _ -> engine);
    schedule_global = (fun ~time_ms f -> Des.Engine.schedule_at engine ~time_ms f);
    run_until = (fun until_ms -> Des.Engine.run engine ~until_ms);
    entity;
    arrival_ms = (fun ~region:_ ~issue_ms -> issue_ms);
    arrive = (fun ~region:_ ~issue_ms:_ -> ());
    submit =
      (fun ~region:_ request ~reply ->
        Des.Engine.schedule engine ~delay_ms:(delay_ms request) (fun () ->
            reply Samya.Types.Granted));
    crash_site = ignore;
    recover_site = ignore;
    partition = ignore;
    heal = ignore;
    stats =
      (fun () ->
        {
          Harness.Systems.redistributions = 0;
          borrows = 0;
          borrow_tokens = 0;
          mechanism_switches = 0;
          messages_sent = 0;
          messages_delivered = 0;
          messages_dropped = 0;
        });
    subscribe = (fun () -> invalid_arg "stub: no observability");
    arm = ignore;
    invariant = (fun ~maximum:_ -> Ok ());
  }

let fixed_backoff ~max_attempts =
  Some
    {
      Harness.Driver.max_attempts;
      base_backoff_ms = 10.0;
      max_backoff_ms = 10.0;
      jitter = 0.0;
      jitter_seed = 1L;
    }

let watchdog_fires_per_client_not_per_attempt () =
  (* Five clients, an acquire every 50 ms each for 10 s, every reply in
     20 ms against a 1 s timeout. Each client's timeouts fire about once
     per timeout, as an entry still in flight at the deadline of the one
     before it; the settled entries between them cost no event. An event
     per attempt would add 1000 events to the run without timeouts. *)
  let clients = regions () in
  let duration_ms = 10_000.0 and timeout_ms = 1_000.0 in
  let requests =
    Array.init 1_000 (fun i ->
        req (float_of_int (i / 5) *. 50.0) (i mod 5) Trace.Workload.Acquire 1)
  in
  (* The run's result and the number of events it put through the queue. *)
  let run client_timeout_ms =
    let engine = Des.Engine.create () in
    let events = ref 0 in
    Des.Engine.set_tracer engine
      (Some
         {
           Des.Engine.on_timer_fired = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
           on_timer_cancelled = (fun ~label:_ ~armed_ms:_ ~now_ms:_ -> ());
           after_step = (fun ~now_ms:_ ~pending:_ -> incr events);
         });
    let spec =
      {
        (Harness.Driver.default_spec ~client_regions:clients ~requests ~duration_ms)
        with
        Harness.Driver.drain_ms = 5_000.0;
        client_timeout_ms;
        retry = fixed_backoff ~max_attempts:3;
      }
    in
    let r =
      Harness.Driver.run ~t_system:(timed_stub engine ~delay_ms:(fun _ -> 20.0)) spec
    in
    (r, !events)
  in
  let r, events = run timeout_ms in
  let _, baseline = run infinity in
  check int "every acquire committed" 1_000 r.Harness.Driver.committed;
  check int "no timeouts" 0 r.Harness.Driver.timed_out;
  let bound =
    Array.length clients * (int_of_float (Float.ceil (duration_ms /. timeout_ms)) + 1)
  in
  check bool
    (Printf.sprintf "%d timeout events <= %d" (events - baseline) bound)
    true
    (events >= baseline && events - baseline <= bound)

let reply_at_the_deadline_is_a_timeout () =
  (* One client: acquire A at 0 ms answered in 20 ms, acquire B at 50 ms
     answered in exactly the 100 ms timeout. B's timeout (150 ms) enters
     the queue only when A's settled entry fires at 100 ms, behind B's
     reply, which was queued at 50 ms: the reply must still lose the
     tie. *)
  let engine = Des.Engine.create () in
  let delay_ms = function
    | Samya.Types.Acquire { amount = 2; _ } -> 100.0
    | _ -> 20.0
  in
  let spec =
    {
      (Harness.Driver.default_spec
         ~client_regions:[| (regions ()).(0) |]
         ~requests:
           [| req 0.0 0 Trace.Workload.Acquire 1; req 50.0 0 Trace.Workload.Acquire 2 |]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.drain_ms = 1_000.0;
      client_timeout_ms = 100.0;
      retry = fixed_backoff ~max_attempts:1;
    }
  in
  let r = Harness.Driver.run ~t_system:(timed_stub engine ~delay_ms) spec in
  check int "only A committed" 1 r.Harness.Driver.committed;
  check int "B timed out at its deadline" 1 r.Harness.Driver.timed_out;
  check int "both replies arrived" 0 r.Harness.Driver.no_reply

(* [timed_stub] whose sends arrive [leg_ms issue_ms] after their issue,
   as a system that folds the outbound leg into the send does. *)
let legged_stub engine ~leg_ms ~delay_ms =
  {
    (timed_stub engine ~delay_ms) with
    Harness.Systems.arrival_ms = (fun ~region:_ ~issue_ms -> issue_ms +. leg_ms issue_ms);
  }

let reply_at_the_deadline_is_a_timeout_after_a_leg () =
  (* The case above with a 5 ms outbound leg: B, sent at 50 ms, arrives
     at 55 ms and is answered exactly at its deadline, 150 ms. Its timeout
     entry is pushed at the arrival, before the system accepts B, so the
     reply still loses the tie. *)
  let engine = Des.Engine.create () in
  let delay_ms = function
    | Samya.Types.Acquire { amount = 2; _ } -> 95.0
    | _ -> 20.0
  in
  let spec =
    {
      (Harness.Driver.default_spec
         ~client_regions:[| (regions ()).(0) |]
         ~requests:
           [| req 0.0 0 Trace.Workload.Acquire 1; req 50.0 0 Trace.Workload.Acquire 2 |]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.drain_ms = 1_000.0;
      client_timeout_ms = 100.0;
      retry = fixed_backoff ~max_attempts:1;
    }
  in
  let r =
    Harness.Driver.run ~t_system:(legged_stub engine ~leg_ms:(fun _ -> 5.0) ~delay_ms) spec
  in
  check int "only A committed" 1 r.Harness.Driver.committed;
  check int "B timed out at its deadline" 1 r.Harness.Driver.timed_out;
  check int "both replies arrived" 0 r.Harness.Driver.no_reply

let crossing_legs_keep_the_timeout_line_in_order () =
  (* One client. Acquire X, sent at 0 ms over a 1 ms leg, is granted at
     21 ms; its grant-driven release is sent at 71 ms over a 9 ms leg and
     arrives at 80 ms. Acquire Y, sent at 75 ms over a 1 ms leg,
     overtakes it: Y's deadline (175 ms) goes on the timeout line at
     76 ms, the release's (171 ms) at 80 ms. The release's entry is
     pushed at Y's deadline instead of being refused, and nothing times
     out. *)
  let engine = Des.Engine.create () in
  let leg_ms issue_ms = if issue_ms = 71.0 then 9.0 else 1.0 in
  let spec =
    {
      (Harness.Driver.default_spec
         ~client_regions:[| (regions ()).(0) |]
         ~requests:
           [| req 0.0 0 Trace.Workload.Acquire 1; req 75.0 0 Trace.Workload.Acquire 1 |]
         ~duration_ms:1_000.0)
      with
      Harness.Driver.drain_ms = 1_000.0;
      client_timeout_ms = 100.0;
      grant_driven_release_ms = Some 50.0;
      retry = fixed_backoff ~max_attempts:1;
    }
  in
  let r =
    Harness.Driver.run
      ~t_system:(legged_stub engine ~leg_ms ~delay_ms:(fun _ -> 20.0))
      spec
  in
  check int "both acquires and both releases committed" 4 r.Harness.Driver.committed;
  check int "nothing timed out" 0 r.Harness.Driver.timed_out;
  check int "every attempt replied" 0 r.Harness.Driver.no_reply

let slo_abort_classes_accumulate () =
  let slo = Obs.Slo.create () in
  let f = Obs.Slo.feed slo in
  Obs.Slo.Feed.commit f ~start_ms:0.0 ~now_ms:10.0 ~latency_ms:1.0;
  Obs.Slo.Feed.abort f ~cls:"timeout" ~start_ms:0.0 ~now_ms:20.0;
  Obs.Slo.Feed.abort f ~cls:"shed" ~start_ms:0.0 ~now_ms:30.0;
  Obs.Slo.Feed.abort f ~cls:"timeout" ~start_ms:0.0 ~now_ms:40.0;
  Obs.Slo.Feed.abort f ~cls:"" ~start_ms:0.0 ~now_ms:50.0;
  Obs.Slo.absorb slo f;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "sorted cumulative classes"
    [ ("shed", 1); ("timeout", 2) ]
    (Obs.Slo.abort_classes slo)

(* ------------------------------------------------------------------ *)
(* Workload and fault generators *)

let flash_sale_stream rng =
  Trace.Workload.flash_sale ~rng ~entity:"sale" ~home:0 ~n_clients:5
    ~base_rate_per_s:200.0 ~spike_rate_per_s:2_000.0 ~spike_start_ms:2_000.0
    ~spike_end_ms:3_000.0 ~duration_ms:5_000.0 ()

let flash_sale_shape () =
  let stream = flash_sale_stream (Des.Rng.create 7L) in
  check bool "non-empty" true (Array.length stream > 0);
  Array.iter
    (fun r ->
      check bool "acquire" true (r.Trace.Workload.kind = Trace.Workload.Acquire);
      check bool "entity" true (r.Trace.Workload.entity = "sale");
      check bool "amount 1" true (r.Trace.Workload.amount = 1);
      check bool "in horizon" true
        (r.Trace.Workload.time_ms >= 0.0 && r.Trace.Workload.time_ms <= 5_000.0))
    stream;
  let sorted = ref true in
  Array.iteri
    (fun i r ->
      if i > 0 && r.Trace.Workload.time_ms < stream.(i - 1).Trace.Workload.time_ms
      then sorted := false)
    stream;
  check bool "time-sorted" true !sorted;
  let in_window lo hi =
    Array.fold_left
      (fun acc r ->
        if r.Trace.Workload.time_ms >= lo && r.Trace.Workload.time_ms < hi then
          acc + 1
        else acc)
      0 stream
  in
  (* Poisson means: 400 base arrivals over [0, 2 s), 2000 in the spike
     second, 400 over the 2 s tail — generous 3-sigma-ish bounds. *)
  let base_head = in_window 0.0 2_000.0 in
  let spike = in_window 2_000.0 3_000.0 in
  let base_tail = in_window 3_000.0 5_000.0 in
  check bool "base head plausible" true (base_head > 280 && base_head < 540);
  check bool "spike plausible" true (spike > 1_700 && spike < 2_320);
  check bool "base tail plausible" true (base_tail > 280 && base_tail < 540);
  let home_count =
    Array.fold_left
      (fun acc r -> if r.Trace.Workload.site = 0 then acc + 1 else acc)
      0 stream
  in
  (* home_affinity 0.9 plus 1/5th of the uniform remainder. *)
  let frac = float_of_int home_count /. float_of_int (Array.length stream) in
  check bool "home-skewed" true (frac > 0.85 && frac < 0.98);
  (* Determinism in the rng. *)
  let again = flash_sale_stream (Des.Rng.create 7L) in
  check bool "deterministic" true (stream = again)

let flash_sale_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  let gen ?(home = 0) ?(base = 100.0) ?(spike = 200.0) ?(s0 = 1_000.0)
      ?(s1 = 2_000.0) ?(d = 3_000.0) () =
    Trace.Workload.flash_sale ~rng:(Des.Rng.create 1L) ~entity:"e" ~home
      ~n_clients:3 ~base_rate_per_s:base ~spike_rate_per_s:spike
      ~spike_start_ms:s0 ~spike_end_ms:s1 ~duration_ms:d ()
  in
  check bool "home out of range" true (invalid (fun () -> gen ~home:3 ()));
  check bool "zero base rate" true (invalid (fun () -> gen ~base:0.0 ()));
  check bool "nan spike rate" true (invalid (fun () -> gen ~spike:Float.nan ()));
  check bool "spike end before start" true
    (invalid (fun () -> gen ~s0:2_500.0 ~s1:2_000.0 ()));
  check bool "spike past duration" true (invalid (fun () -> gen ~s1:4_000.0 ()));
  check bool "well-formed ok" true (Array.length (gen ()) > 0)

let spike_partition_schedule () =
  let s =
    Chaos.Nemesis.spike_partition ~site:2 ~n_sites:5 ~at_ms:1_000.0
      ~heal_ms:2_000.0 ~duration_ms:5_000.0
  in
  (match s.Chaos.Nemesis.faults with
  | [ { Chaos.Nemesis.kind = Chaos.Nemesis.Partition { groups }; at_ms; heal_ms } ]
    ->
      check bool "isolates the site" true (groups = [ [ 2 ]; [ 0; 1; 3; 4 ] ]);
      check bool "window" true (at_ms = 1_000.0 && heal_ms = 2_000.0)
  | _ -> Alcotest.fail "expected exactly one partition fault");
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "site out of range" true
    (invalid (fun () ->
         Chaos.Nemesis.spike_partition ~site:5 ~n_sites:5 ~at_ms:1.0 ~heal_ms:2.0
           ~duration_ms:3.0));
  check bool "heal before cut" true
    (invalid (fun () ->
         Chaos.Nemesis.spike_partition ~site:0 ~n_sites:5 ~at_ms:2.0 ~heal_ms:2.0
           ~duration_ms:3.0));
  check bool "heal past duration" true
    (invalid (fun () ->
         Chaos.Nemesis.spike_partition ~site:0 ~n_sites:5 ~at_ms:1.0 ~heal_ms:4.0
           ~duration_ms:3.0))

(* ------------------------------------------------------------------ *)
(* Conservation under shedding: randomized overload + targeted partition *)

let conservation_under_shedding_random () =
  List.iter
    (fun seed ->
      let rng = Des.Rng.create (Int64.of_int (1_000 + seed)) in
      let quota = 200 + Des.Rng.int rng 800 in
      let spike = 800.0 +. Des.Rng.float rng 1_200.0 in
      let config =
        {
          Samya.Config.default with
          Samya.Config.prediction_enabled = false;
          local_processing_ms = 0.5;
          redistribution_cooldown_ms = 500.0;
          deadline_budget_ms = 400.0;
          admission =
            { Samya.Config.Admission.target_ms = 20.0; interval_ms = 50.0 };
          breaker = { Samya.Config.Breaker.threshold = 2; probe_ms = 1_000.0 };
        }
      in
      let cluster =
        Samya.Cluster.create ~seed:(Int64.of_int seed) ~config
          ~regions:(regions ()) ()
      in
      Samya.Cluster.init_entity cluster ~entity:"sale" ~maximum:quota;
      let t_system =
        Facade.of_samya_cluster ~name:"shed-soak"
          ~hooks:(Facade.samya_hooks ()) ~regions:(regions ())
          ~entity:"sale" cluster
      in
      let requests =
        Trace.Workload.flash_sale
          ~rng:(Des.Rng.create (Int64.of_int (77 + seed)))
          ~entity:"sale" ~home:0 ~n_clients:5 ~base_rate_per_s:300.0
          ~spike_rate_per_s:spike ~spike_start_ms:2_000.0 ~spike_end_ms:3_500.0
          ~duration_ms:8_000.0 ()
      in
      let spec =
        {
          (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
             ~duration_ms:8_000.0)
          with
          Harness.Driver.drain_ms = 10_000.0;
          events =
            [
              {
                Harness.Driver.at_ms = 2_200.0;
                action =
                  (fun () ->
                    t_system.Harness.Systems.partition [ [ 0 ]; [ 1; 2; 3; 4 ] ]);
              };
              {
                Harness.Driver.at_ms = 4_000.0;
                action = (fun () -> t_system.Harness.Systems.heal ());
              };
            ];
          client_timeout_ms = 500.0;
          grant_driven_release_ms = Some 400.0;
          deadline_budget_ms = 500.0;
          retry =
            Some
              {
                Harness.Driver.max_attempts = 3;
                base_backoff_ms = 100.0;
                max_backoff_ms = 800.0;
                jitter = 0.3;
                jitter_seed = Int64.of_int (5 + seed);
              };
        }
      in
      let r = Harness.Driver.run ~t_system spec in
      check bool
        (Printf.sprintf "seed %d: sheds or timeouts occurred" seed)
        true
        (r.Harness.Driver.shed + r.Harness.Driver.timed_out > 0);
      check bool
        (Printf.sprintf "seed %d: conservation (quota %d)" seed quota)
        true
        (Samya.Cluster.check_invariant cluster ~entity:"sale" ~maximum:quota
        = Ok ()))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Hot-path allocation guard *)

let accept_minor_words ~admission =
  (* Low load, obs off: whether the admission gate is armed or not, the
     accept path must allocate identically — the gate is one load and
     one float compare, not an allocation. *)
  let config =
    if admission then
      {
        Samya.Config.default with
        Samya.Config.admission =
          { Samya.Config.Admission.default with target_ms = 1.0e9 };
      }
    else Samya.Config.default
  in
  let cluster = Samya.Cluster.create ~seed:11L ~config ~regions:(regions ()) () in
  Samya.Cluster.init_entity cluster ~entity ~maximum:5_000;
  for i = 0 to 999 do
    let t = float_of_int i *. 10.0 in
    submit_at cluster ~time_ms:t ~region:Geonet.Region.Us_west1
      (Samya.Types.acquire ~entity ~amount:1 ())
      ignore;
    submit_at cluster ~time_ms:(t +. 5.0) ~region:Geonet.Region.Us_west1
      (Samya.Types.release ~entity ~amount:1 ())
      ignore
  done;
  let before = Gc.minor_words () in
  drain ~extra:20_000.0 cluster;
  Gc.minor_words () -. before

let accept_path_allocation_guard () =
  ignore (accept_minor_words ~admission:false);
  ignore (accept_minor_words ~admission:true);
  let off = accept_minor_words ~admission:false in
  let armed = accept_minor_words ~admission:true in
  check bool
    (Printf.sprintf "armed gate allocates no more (off %.0f, armed %.0f)" off
       armed)
    true
    (armed <= off +. 512.0)

(* Absolute budgets, next to the relative guards above: what the request
   path allocates with obs off. On OCaml 5.1 a granted site submit reads
   6 words (the boxed CPU-finish time handed to the reply among them) and
   a driven request ~130; the budgets leave room for compiler drift, not
   for a per-request closure or event coming back. *)

let ignore_reply ~at_ms:_ _ = ()

let site_submit_minor_words_per_call () =
  (* A hot entity with a deep local pool: every acquire is granted
     locally. The first batch warms the path (the proactive check runs
     once per second of virtual time, and the clock does not move here);
     the second is measured. *)
  let cluster = make_cluster ~seed:11L ~maximum:1_000_000 () in
  let site = Samya.Cluster.site cluster 0 in
  let request = Samya.Types.acquire ~entity ~amount:1 () in
  let calls = 1_000 in
  let batch () =
    for _ = 1 to calls do
      Samya.Site.submit site request ~reply:ignore_reply
    done
  in
  batch ();
  let before = Gc.minor_words () in
  batch ();
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  check int "every acquire granted locally" (2 * calls)
    (Samya.Site.stats site).Samya.Site.served_acquires;
  words

let accept_path_absolute_budget () =
  ignore (site_submit_minor_words_per_call ());
  let words = site_submit_minor_words_per_call () in
  check bool
    (Printf.sprintf "granted acquire costs <= 8 minor words (got %.1f)" words)
    true (words <= 8.0)

let driver_minor_words_per_request () =
  (* One client alternating acquire and release on the default 5-site
     cluster, obs off: the whole request path, driver to site and back. *)
  let t_system = driver_system () in
  let n = 2_000 in
  let requests =
    Array.init n (fun i ->
        req
          (float_of_int i *. 5.0)
          0
          (if i mod 2 = 0 then Trace.Workload.Acquire else Trace.Workload.Release)
          1)
  in
  let spec =
    Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
      ~duration_ms:10_000.0
  in
  let before = Gc.minor_words () in
  let r = Harness.Driver.run ~t_system spec in
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check int "every request committed" n r.Harness.Driver.committed;
  words

let request_path_absolute_budget () =
  ignore (driver_minor_words_per_request ());
  let words = driver_minor_words_per_request () in
  check bool
    (Printf.sprintf "request path costs <= 150 minor words per request (got %.1f)"
       words)
    true (words <= 150.0)

let slo_minor_words ~armed ~replies =
  (* [replies] acquires spread over [0, 19 s), so every reply lands in
     one of two 10 s SLO windows: the first 500 are granted from the
     pool and the rest rejected, so both the commit and the abort path
     write. Only [Driver.run] is measured. *)
  let t_system = driver_system ~maximum:500 () in
  let duration_ms = 20_000.0 in
  let requests =
    Array.init replies (fun i ->
        req
          (float_of_int i *. 19_000.0 /. float_of_int replies)
          (i mod 5) Trace.Workload.Acquire 1)
  in
  let spec =
    {
      (Harness.Driver.default_spec ~client_regions:(regions ()) ~requests
         ~duration_ms)
      with
      Harness.Driver.slo = (if armed then Some (Obs.Slo.create ()) else None);
    }
  in
  let before = Gc.minor_words () in
  let r = Harness.Driver.run ~t_system spec in
  let words = Gc.minor_words () -. before in
  check int "every request answered" replies
    (r.Harness.Driver.committed + r.Harness.Driver.rejected);
  words

let slo_feed_allocation_guard () =
  (* Arming the SLO monitor costs a cell per (client, window), never
     anything per reply: at the same window count, 4x the replies must
     not raise what arming adds. *)
  let extra ~replies =
    ignore (slo_minor_words ~armed:true ~replies);
    slo_minor_words ~armed:true ~replies -. slo_minor_words ~armed:false ~replies
  in
  let small = extra ~replies:1_000 in
  let large = extra ~replies:4_000 in
  check bool
    (Printf.sprintf "armed SLO is O(windows) (extra words: 1k replies %.0f, 4k %.0f)"
       small large)
    true
    (large <= small +. 1024.0)

(* ------------------------------------------------------------------ *)
(* The retry-storm experiment: sharded byte-identity and the verdict *)

let retrystorm_engine_jobs_identical () =
  (* The heaviest arm — retries, watchdogs, jittered backoff, deadline
     sheds, per-client SLO cells — must reproduce byte-identically at any
     --engine-jobs setting. *)
  let plan = Harness.Exp_retrystorm.plan ~quick:true in
  let arm = Harness.Scenario.arm plan "admission" in
  let fingerprint engine_jobs =
    let c = Harness.Scenario.capture ~engine_jobs plan arm in
    let r = c.Harness.Scenario.result in
    let pre, post, ratio = Harness.Exp_retrystorm.recovery ~quick:true c in
    Format.asprintf "%d/%d/%d/%d/%d/%d p50=%.4f pre=%.3f post=%.3f r=%.5f slo=%a"
      r.Harness.Driver.committed r.Harness.Driver.rejected
      r.Harness.Driver.shed r.Harness.Driver.timed_out r.Harness.Driver.retries
      r.Harness.Driver.no_reply
      (Harness.Driver.percentile r 50.0)
      pre post ratio
      (Format.pp_print_list (fun fmt (l : Obs.Slo.report_line) ->
           Format.fprintf fmt "%s:%d/%d" l.Obs.Slo.name l.Obs.Slo.violations
             l.Obs.Slo.windows))
      (Obs.Slo.report c.Harness.Scenario.slo)
  in
  let one = fingerprint 1 in
  check bool "produced data" true (String.length one > 40);
  check Alcotest.string "engine-jobs 2 byte-identical" one (fingerprint 2);
  check Alcotest.string "engine-jobs 4 byte-identical" one (fingerprint 4)

let retrystorm_metastable_gap () =
  (* The scenario's reason to exist: naive immediate retries stay
     metastable after the heal while backoff+admission recovers. *)
  let plan = Harness.Exp_retrystorm.plan ~quick:true in
  let capture id = Harness.Scenario.capture plan (Harness.Scenario.arm plan id) in
  let naive = capture "naive" in
  let admission = capture "admission" in
  let _, _, naive_ratio = Harness.Exp_retrystorm.recovery ~quick:true naive in
  let _, _, adm_ratio = Harness.Exp_retrystorm.recovery ~quick:true admission in
  check bool
    (Printf.sprintf "naive metastable (post/pre %.2f)" naive_ratio)
    true (naive_ratio < 0.5);
  check bool
    (Printf.sprintf "admission recovers (post/pre %.2f)" adm_ratio)
    true (adm_ratio >= 0.9);
  let shed_admission (c : Harness.Scenario.capture) =
    Array.fold_left
      (fun acc site -> acc + Samya.Site.shed_admission site)
      0
      (Samya.Cluster.sites (Option.get c.cluster))
  in
  check bool "admission shed load" true
    (shed_admission naive = 0 && shed_admission admission > 0);
  List.iter
    (fun (c : Harness.Scenario.capture) ->
      check bool "conservation" true
        (Samya.Cluster.check_invariant (Option.get c.cluster) ~entity:"sale"
           ~maximum:3_000
        = Ok ());
      check bool "runner audit agrees" true (c.violations = []))
    [ naive; admission ]

let suite =
  [
    Alcotest.test_case "config: overload knob validation" `Quick
      config_rejects_bad_overload_knobs;
    Alcotest.test_case "config: degenerate protocol timings refused" `Quick
      config_rejects_degenerate_timings;
    Alcotest.test_case "types: nan deadline rejected" `Quick
      request_rejects_nan_deadline;
    Alcotest.test_case "shed: dead on arrival" `Quick dead_on_arrival_is_shed;
    Alcotest.test_case "shed: queued entry expires" `Quick
      queued_entry_expires_unreplayed;
    Alcotest.test_case "admission: sheds and recovers" `Quick
      admission_gate_sheds_and_recovers;
    Alcotest.test_case "breaker: opens and re-probes" `Quick
      breaker_opens_and_reprobes;
    Alcotest.test_case "avantan: stale accept leader unwedges" `Quick
      stale_accept_leader_unwedges;
    Alcotest.test_case "driver: retry spec validation" `Quick
      driver_spec_validation_raises;
    Alcotest.test_case "driver: retries acquires, never releases" `Quick
      retrying_clients_resubmit_but_not_releases;
    Alcotest.test_case "driver: superseded attempt settles nothing" `Quick
      superseded_attempt_books_tokens_but_is_not_counted;
    Alcotest.test_case "driver: jittered retries deterministic" `Quick
      retry_backoff_is_deterministic;
    Alcotest.test_case "driver: timeout attribution in SLO" `Quick
      timeouts_attributed_in_slo;
    Alcotest.test_case "driver: one watchdog per client" `Quick
      watchdog_fires_per_client_not_per_attempt;
    Alcotest.test_case "driver: reply at the deadline times out" `Quick
      reply_at_the_deadline_is_a_timeout;
    Alcotest.test_case "driver: a reply at the deadline loses after a leg" `Quick
      reply_at_the_deadline_is_a_timeout_after_a_leg;
    Alcotest.test_case "driver: crossing legs keep the timeout line in order" `Quick
      crossing_legs_keep_the_timeout_line_in_order;
    Alcotest.test_case "slo: abort classes" `Quick slo_abort_classes_accumulate;
    Alcotest.test_case "workload: flash sale shape" `Quick flash_sale_shape;
    Alcotest.test_case "workload: flash sale validation" `Quick
      flash_sale_validation;
    Alcotest.test_case "nemesis: spike partition" `Quick spike_partition_schedule;
    Alcotest.test_case "conservation under shedding (randomized)" `Slow
      conservation_under_shedding_random;
    Alcotest.test_case "accept path: allocation guard" `Slow
      accept_path_allocation_guard;
    Alcotest.test_case "accept path: absolute allocation budget" `Slow
      accept_path_absolute_budget;
    Alcotest.test_case "request path: absolute allocation budget" `Slow
      request_path_absolute_budget;
    Alcotest.test_case "slo feed: allocation guard" `Slow
      slo_feed_allocation_guard;
    Alcotest.test_case "retrystorm: engine-jobs byte-identical" `Slow
      retrystorm_engine_jobs_identical;
    Alcotest.test_case "retrystorm: metastable gap" `Slow retrystorm_metastable_gap;
    Alcotest.test_case "driver: a retry keeps the first deadline" `Quick
      retry_keeps_the_first_deadline;
  ]
