(* One run of a workload, and the two benchmark modes built from runs:
   [measure] (end-to-end metrics, tracing off) and [trace] (per-layer
   metrics from a probed run plus paired untraced runs). Both check
   correctness once per invocation, outside the timed runs. *)

module Driver = Harness.Driver
module W = Workloads

let now_s () = Probe.now_ns () *. 1e-9

type run = {
  gen_s : float;  (* stream generation *)
  cluster_s : float;  (* Cluster.create + entity registration *)
  setup_s : float;  (* start to the first simulated event *)
  run_s : float;  (* Driver.run *)
  kernel_start_s : float;  (* [Calib.time] before setup, ... *)
  kernel_ready_s : float;  (* ... between setup and Driver.run, ... *)
  kernel_ran_s : float;  (* ... and after it *)
  audit_s : float;  (* every key's Cluster.check_invariant *)
  fold_s : float;  (* Flight_recorder.events + Watchdog.detect + Slo.report *)
  wall_s : float;  (* setup, run, audit and fold; the kernels left out *)
  offered : int;  (* stream requests *)
  virtuals : float list;  (* [virtual_metrics], in order *)
  committed : int;
  no_reply : int;
  retries : int;
  peak_heap_mb : float;  (* the run's process: Gc top_heap_words *)
  violation : string option;  (* first key that failed the audit *)
  hot_entities : int;
  minor_words : float;
  major_collections : int;
  net_sent : int;
  net_delivered : int;
  net_dropped : int;
  site : Samya.Site.stats;
  protocol : Samya.Avantan_core.stats;
  redistributions : int;
  shed_deadline : int;
  shed_admission : int;
  shed_expired : int;
  breaker_trips : int;
  syncs : int;
  flight_recorded : int;
  flight_dropped : int;
  probe : Probe.t option;  (* the traced run's attribution *)
}

(* ------------------------------------------------------------------ *)
(* Virtual-time metrics: a pure function of the seed *)

let failures (r : Driver.result) =
  r.Driver.rejected + r.Driver.unavailable + r.Driver.shed + r.Driver.timed_out
  + r.Driver.no_reply

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Committed share of all terminal outcomes; retried attempts are not
   counted again. The complement of the failure share, reported this way
   because a workload without refusals would read exactly 0. *)
let success_frac (r : Driver.result) =
  ratio
    (float_of_int r.Driver.committed)
    (float_of_int (r.Driver.committed + failures r))

let virtual_metrics =
  [
    ("commit_tps", "txn/s", Driver.average_tps);
    ("lat_p50_ms", "ms", fun r -> Driver.percentile r 50.0);
    ("lat_p99_ms", "ms", fun r -> Driver.percentile r 99.0);
    ("lat_p999_ms", "ms", fun r -> Driver.percentile r 99.9);
    ("success_frac", "ratio", success_frac);
  ]

(* ------------------------------------------------------------------ *)
(* One run *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

let audit cluster (inputs : W.inputs) =
  let rec go r =
    if r >= inputs.W.keys then None
    else
      let entity = inputs.W.key r in
      match Samya.Cluster.check_invariant cluster ~entity ~maximum:(inputs.W.quota r) with
      | Ok () -> go (r + 1)
      | Error reason -> Some (entity ^ ": " ^ reason)
  in
  go 0

let run_once (w : W.t) ~seed ~jobs ~armed ~traced =
  let probe = if traced then Some (Probe.create ()) else None in
  let kernel_start_s = Calib.time () in
  let start = now_s () in
  let inputs = w.W.generate ~seed in
  let generated = now_s () in
  let hooks =
    Facade.samya_hooks ?on_protocol_event:(Option.map Probe.protocol_event probe) ()
  in
  let regions = W.regions () in
  let cluster =
    Samya.Cluster.create ~seed ~engine_jobs:jobs ~config:w.W.config ~regions
      ~on_protocol_event:(Facade.protocol_event_hook hooks)
      ~obs:(Facade.obs_port hooks) ()
  in
  w.W.register cluster inputs;
  let created = now_s () in
  let system =
    Facade.of_samya_cluster ~name:w.W.name ~hooks ~regions ~entity:(inputs.W.key 0)
      cluster
  in
  let system =
    match probe with None -> system | Some p -> Probe.install p cluster system
  in
  let spec = w.W.spec ~seed system inputs in
  let obs, spec =
    if armed then begin
      let flight = Obs.Flight_recorder.create () in
      let hot = Obs.Heavy_hitters.Windowed.create ~k:w.W.sketch_k ~window_ms:2_000.0 () in
      system.Facade.arm { Obs.Flight_recorder.recorder = flight; hot = Some hot };
      let slo = Obs.Slo.create ~window_ms:2_000.0 () in
      (Some (flight, slo), { spec with Driver.slo = Some slo; flight = Some flight })
    end
    else (None, spec)
  in
  let set_up = now_s () in
  let kernel_ready_s = Calib.time () in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let ready = now_s () in
  let result = Driver.run ~t_system:system spec in
  let ran = now_s () in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let kernel_ran_s = Calib.time () in
  let resumed = now_s () in
  let violation = audit cluster inputs in
  let audited = now_s () in
  Option.iter
    (fun (flight, slo) ->
      ignore (Obs.Watchdog.detect (Obs.Flight_recorder.events flight));
      ignore (Obs.Slo.report slo))
    obs;
  let folded = now_s () in
  let sites = Samya.Cluster.sites cluster in
  let sum f = Array.fold_left (fun acc site -> acc + f site) 0 sites in
  let network = Samya.Cluster.network cluster in
  let entity = inputs.W.key 0 in
  {
    gen_s = generated -. start;
    cluster_s = created -. generated;
    setup_s = set_up -. start;
    run_s = ran -. ready;
    kernel_start_s;
    kernel_ready_s;
    kernel_ran_s;
    audit_s = audited -. resumed;
    fold_s = folded -. audited;
    wall_s = set_up -. start +. (ran -. ready) +. (folded -. resumed);
    offered = Array.length inputs.W.requests;
    virtuals = List.map (fun (_, _, f) -> f result) virtual_metrics;
    committed = result.Driver.committed;
    no_reply = result.Driver.no_reply;
    retries = result.Driver.retries;
    peak_heap_mb = peak_heap_mb ();
    violation;
    hot_entities = Samya.Cluster.hot_entities cluster;
    minor_words;
    major_collections;
    net_sent = Geonet.Network.stats_sent network;
    net_delivered = Geonet.Network.stats_delivered network;
    net_dropped = Geonet.Network.stats_dropped network;
    site = Samya.Cluster.aggregate_site_stats cluster;
    protocol = Samya.Cluster.aggregate_protocol_stats cluster;
    redistributions = Samya.Cluster.total_redistributions cluster;
    shed_deadline = sum Samya.Site.shed_deadline;
    shed_admission = sum Samya.Site.shed_admission;
    shed_expired = sum Samya.Site.shed_queue_expired;
    (* the breaker is per entity; the single-key workloads arm it *)
    breaker_trips = sum (fun site -> Samya.Site.breaker_trips site ~entity);
    syncs = sum Samya.Site.durable_syncs;
    flight_recorded =
      (match obs with Some (f, _) -> Obs.Flight_recorder.recorded f | None -> 0);
    flight_dropped =
      (match obs with Some (f, _) -> Obs.Flight_recorder.dropped f | None -> 0);
    probe;
  }

(* Exact rendering of the virtual-time metrics: two runs of one seed must
   produce the same string at any engine worker count. *)
let fingerprint r = String.concat " " (List.map (Printf.sprintf "%h") r.virtuals)

(* ------------------------------------------------------------------ *)
(* Correctness: conservation on every key, a reply for every request,
   and identical virtual-time metrics across runs and worker counts. *)

(* [runs]: (label, run, the run whose virtual-time metrics it must
   reproduce). Returns the problems found. *)
let check runs =
  List.concat_map
      (fun (label, r, reference) ->
        (match r.violation with
        | Some v -> [ Printf.sprintf "%s: conservation violated at %s" label v ]
        | None -> [])
        @ (if r.no_reply > 0 then
             [ Printf.sprintf "%s: %d requests got no reply" label r.no_reply ]
           else [])
        @
        if fingerprint r <> fingerprint reference then
          [
            Printf.sprintf "%s: virtual-time metrics differ (%s vs %s)" label
              (fingerprint r) (fingerprint reference);
          ]
        else [])
    runs

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_of f runs = median (List.map f runs)

let host_cores () = Domain.recommended_domain_count ()

type metric = { name : string; unit : string; value : float option }
(* [value = None]: unmeasured on this host *)

let metric name unit value = { name; unit; value = Some value }

type outcome = {
  metrics : metric list;
  notes : string list;  (* human-readable lines printed before the result *)
  attempted : int;  (* requests driven in the measured runs *)
  failed : int;  (* of those, requests that never got a reply *)
  problems : string list;  (* failed correctness checks *)
}

(* Every run executes in a child process of its own and sends its
   summary back over a pipe. A run then starts from a fresh heap: it
   inherits no other run's heap layout or GC debt, and its peak heap is
   its own. Runs also land on fresh process placements, as separate
   invocations do, so one invocation's median does not rest on a single
   placement. The parent never starts a domain, so it can fork. *)
let fresh_run w ~seed ~jobs ~armed ~traced =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let reply : (run, string) result =
        try Ok (run_once w ~seed ~jobs ~armed ~traced)
        with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc reply [];
      close_out oc;
      Unix._exit 0
  | child -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let reply : (run, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "the run's process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] child);
      match reply with Ok r -> r | Error e -> failwith e)

(* The virtual-time tail of one seed is chaotic: a stall on a hot key
   moves a run's p99 by tens of percent. So one invocation drives
   [sub_seeds] independent sub-seeds of its --seed and reports the median
   of each virtual-time metric over them. *)
let sub_seeds = 6

let sub_seed seed i = Des.Rng.stream_seed seed i

(* A run's setup, run phase and whole wall time at reference
   speed: each phase is scaled by the kernel times that bracket it. The
   audit and fold come after the last kernel. *)
type at_reference = { ref_setup_s : float; ref_run_s : float; ref_wall_s : float }

let at_reference r =
  let scale kernel_s = Calib.reference_s /. kernel_s in
  let setup = r.setup_s *. scale ((r.kernel_start_s +. r.kernel_ready_s) /. 2.0) in
  let run = r.run_s *. scale ((r.kernel_ready_s +. r.kernel_ran_s) /. 2.0) in
  let tail = (r.audit_s +. r.fold_s) *. scale r.kernel_ran_s in
  { ref_setup_s = setup; ref_run_s = run; ref_wall_s = setup +. run +. tail }

(* End-to-end mode: run the workload at one engine worker, cycling
   through the sub-seeds, until [seconds] have passed and every sub-seed
   ran once; report medians, the wall-time ones at reference speed. Then
   replay sub-seed 0 at two workers for the determinism check. *)
let measure (w : W.t) ~seed ~seconds =
  let t0 = now_s () in
  let rec loop i acc =
    let acc =
      fresh_run w ~seed:(sub_seed seed (i mod sub_seeds)) ~jobs:1 ~armed:true ~traced:false
      :: acc
    in
    if i + 1 >= sub_seeds && now_s () -. t0 >= seconds then Array.of_list (List.rev acc)
    else loop (i + 1) acc
  in
  let runs = loop 0 [] in
  let replay = fresh_run w ~seed:(sub_seed seed 0) ~jobs:2 ~armed:true ~traced:false in
  let problems =
    check
      (List.mapi
         (fun i r -> (Printf.sprintf "run %d" (i + 1), r, runs.(i mod sub_seeds)))
         (Array.to_list runs)
      @ [ ("replay at 2 workers", replay, runs.(0)) ])
  in
  let per_seed = Array.to_list (Array.sub runs 0 sub_seeds) in
  let runs = Array.to_list runs in
  let metrics =
    [
      metric "setup_s" "s" (median_of (fun r -> (at_reference r).ref_setup_s) runs);
      metric "wall_s" "s" (median_of (fun r -> (at_reference r).ref_wall_s) runs);
      metric "sim_req_per_s" "req/s"
        (median_of (fun r -> float_of_int r.offered /. (at_reference r).ref_run_s) runs);
      metric "peak_heap_mb" "MB" (median_of (fun r -> r.peak_heap_mb) runs);
    ]
    @ List.mapi
        (fun i (name, unit, _) ->
          metric name unit (median_of (fun r -> List.nth r.virtuals i) per_seed))
        virtual_metrics
  in
  let notes =
    [
      Printf.sprintf
        "runs: %d at 1 engine worker over %d sub-seeds (medians), sub-seed 0 replayed at \
         2 workers"
        (List.length runs) sub_seeds;
      Printf.sprintf "latency samples per sub-seed: %s committed"
        (String.concat ", "
           (List.map (fun r -> string_of_int r.committed) per_seed));
      Printf.sprintf "run phase per run: %s s"
        (String.concat ", " (List.map (fun r -> Printf.sprintf "%.4f" r.run_s) runs));
      Printf.sprintf "reference kernel around each run phase: %s s (reference %.2f s)"
        (String.concat ", "
           (List.map
              (fun r -> Printf.sprintf "%.4f" ((r.kernel_ready_s +. r.kernel_ran_s) /. 2.0))
              runs))
        Calib.reference_s;
      Printf.sprintf "as measured (medians): setup_s %.4f, wall_s %.4f, sim_req_per_s %.0f"
        (median_of (fun r -> r.setup_s) runs)
        (median_of (fun r -> r.wall_s) runs)
        (median_of (fun r -> float_of_int r.offered /. r.run_s) runs);
    ]
  in
  {
    metrics;
    notes;
    attempted = List.fold_left (fun acc r -> acc + r.offered) 0 runs;
    failed = List.fold_left (fun acc r -> acc + r.no_reply) 0 runs;
    problems;
  }

(* The event-class self times plus the driver's measured time outside
   the event loop must add up to the probed Driver.run wall time within
   this share of it. Outside the loop the driver schedules the stream
   (before) and replays the SLO feed and merges per-client results
   (after). *)
let class_tolerance = 0.05

(* Traced mode: one probed run for attribution, then paired untraced runs
   at one worker (obs stack armed / disarmed, alternating) and one at two
   workers (shard speedup, determinism). *)
let trace (w : W.t) ~seed =
  let seed = sub_seed seed 0 in
  let traced = fresh_run w ~seed ~jobs:1 ~armed:true ~traced:true in
  let probe = Option.get traced.probe in
  let armed_a = fresh_run w ~seed ~jobs:1 ~armed:true ~traced:false in
  let bare_a = fresh_run w ~seed ~jobs:1 ~armed:false ~traced:false in
  let bare_b = fresh_run w ~seed ~jobs:1 ~armed:false ~traced:false in
  let armed_b = fresh_run w ~seed ~jobs:1 ~armed:true ~traced:false in
  let two = fresh_run w ~seed ~jobs:2 ~armed:true ~traced:false in
  let armed = [ armed_a; armed_b ] and bare = [ bare_a; bare_b ] in
  let cores = host_cores () in
  let problems =
    check
      (List.map
         (fun (label, r) -> (label, r, traced))
         [
           ("traced run", traced);
           ("armed run 1", armed_a);
           ("disarmed run 1", bare_a);
           ("disarmed run 2", bare_b);
           ("armed run 2", armed_b);
           ("replay at 2 workers", two);
         ])
  in
  let req = float_of_int traced.offered in
  let per_req x = ratio x req in
  (* Paired comparisons use run phases at reference speed, so that host
     drift between the runs of a pair does not read as a difference. *)
  let ref_run r = (at_reference r).ref_run_s in
  let traced_run_s = ref_run traced and two_run_s = ref_run two in
  let armed_run_s = median_of ref_run armed in
  let bare_run_s = median_of ref_run bare in
  let class_s = Probe.total_s probe in
  let outside_s = traced.run_s -. Probe.loop_s probe in
  let accounted = ratio class_s traced.run_s in
  let unaccounted = ratio (traced.run_s -. class_s -. outside_s) traced.run_s in
  let problems =
    if Float.abs unaccounted <= class_tolerance then problems
    else
      problems
      @ [
          Printf.sprintf
            "event classes and the driver outside the event loop leave %.1f%% of the \
             traced run phase unaccounted (tolerance %.0f%%)"
            (100.0 *. unaccounted) (100.0 *. class_tolerance);
        ]
  in
  let events = Probe.total_events probe in
  let classes = Probe.classes probe in
  let class_sum prefix f =
    List.fold_left
      (fun acc (name, n, s) ->
        if String.starts_with ~prefix name then acc +. f n s else acc)
      0.0 classes
  in
  let class_metrics c =
    [
      metric ("des.class." ^ c ^ ".events") "count" (class_sum c (fun n _ -> float_of_int n));
      metric ("des.class." ^ c ^ ".s") "s" (class_sum c (fun _ s -> s));
    ]
  in
  let p = traced.protocol in
  let s = traced.site in
  let speedup =
    if cores >= 2 then Some (ratio armed_run_s two_run_s) else None
  in
  let metrics =
    [
      metric "trace.gen_s" "s" (median_of (fun r -> r.gen_s) armed);
      metric "samya.setup_s" "s" (median_of (fun r -> r.cluster_s) armed);
      metric "samya.hot_entities" "count" (float_of_int traced.hot_entities);
      metric "samya.audit_s" "s" (median_of (fun r -> r.audit_s) armed);
      metric "facade.submit.calls" "count"
        (float_of_int (Probe.span_calls probe Probe.submit_span));
      metric "facade.submit.ns" "ns" (Probe.span_mean_ns probe Probe.submit_span);
      metric "driver.reply.calls" "count"
        (float_of_int (Probe.span_calls probe Probe.reply_span));
      metric "driver.reply.ns" "ns" (Probe.span_mean_ns probe Probe.reply_span);
      metric "driver.retries" "count" (float_of_int traced.retries);
      metric "driver.outside_loop_s" "s" outside_s;
      metric "des.events" "count" (float_of_int events);
      metric "des.events_per_req" "events/req" (per_req (float_of_int events));
      metric "des.ns_per_event" "ns" (ratio (class_s *. 1e9) (float_of_int events));
      metric "des.class.accounted" "ratio" accounted;
      metric "des.trace_overhead" "ratio" (ratio traced_run_s armed_run_s);
    ]
    @ List.concat_map class_metrics
        [ "geonet.deliver"; "client.issue"; "client.reply"; "timer"; "other" ]
    @ [
        { name = "des.shard.speedup_2w"; unit = "ratio"; value = speedup };
        metric "geonet.sent" "count" (float_of_int traced.net_sent);
        metric "geonet.delivered" "count" (float_of_int traced.net_delivered);
        metric "geonet.dropped" "count" (float_of_int traced.net_dropped);
        metric "geonet.msgs_per_req" "msgs/req" (per_req (float_of_int traced.net_sent));
        metric "avantan.started" "count" (float_of_int p.Samya.Avantan_core.led_started);
        metric "avantan.decided" "count" (float_of_int p.Samya.Avantan_core.led_decided);
        metric "avantan.aborted" "count" (float_of_int p.Samya.Avantan_core.led_aborted);
        metric "avantan.decided_frac" "ratio"
          (ratio
             (float_of_int p.Samya.Avantan_core.led_decided)
             (float_of_int p.Samya.Avantan_core.led_started));
        metric "avantan.rounds_per_decision" "ratio"
          (ratio
             (float_of_int (Probe.led_rounds probe))
             (float_of_int (Probe.led_decisions probe)));
        metric "site.redistributions" "count" (float_of_int traced.redistributions);
        metric "site.borrows" "count" (float_of_int s.Samya.Site.borrows);
        metric "site.borrow_tokens" "count" (float_of_int s.Samya.Site.borrow_tokens);
        metric "site.mechanism_switches" "count"
          (float_of_int s.Samya.Site.mechanism_switches);
        metric "site.shed_deadline" "count" (float_of_int traced.shed_deadline);
        metric "site.shed_admission" "count" (float_of_int traced.shed_admission);
        metric "site.shed_expired" "count" (float_of_int traced.shed_expired);
        metric "site.breaker_trips" "count" (float_of_int traced.breaker_trips);
        metric "site.queue_peak" "count" (float_of_int s.Samya.Site.queued_peak);
        metric "storage.syncs" "count" (float_of_int traced.syncs);
        metric "storage.syncs_per_req" "syncs/req" (per_req (float_of_int traced.syncs));
        metric "obs.flight.recorded" "count" (float_of_int traced.flight_recorded);
        metric "obs.flight.dropped" "count" (float_of_int traced.flight_dropped);
        metric "obs.fold_s" "s" (median_of (fun r -> r.fold_s) armed);
        metric "obs.armed_ns_per_req" "ns" (per_req ((armed_run_s -. bare_run_s) *. 1e9));
        metric "gc.minor_words_per_req" "words/req" (per_req armed_a.minor_words);
        metric "gc.major_collections" "count" (float_of_int armed_a.major_collections);
      ]
  in
  let notes =
    [
      Printf.sprintf
        "traced run phase %.3f s vs untraced %.3f s at reference speed: tracing overhead \
         %.3fx"
        traced_run_s armed_run_s (ratio traced_run_s armed_run_s);
      Printf.sprintf
        "traced Driver.run %.3f s = event classes %.3f s (%.1f%%) + driver outside the \
         event loop %.3f s; unaccounted %.1f%% (tolerance +/-%.0f%%)"
        traced.run_s class_s (100.0 *. accounted) outside_s (100.0 *. unaccounted)
        (100.0 *. class_tolerance);
    ]
    @ List.filter_map
        (fun (name, n, s) ->
          if n = 0 then None
          else
            Some
              (Printf.sprintf "  des.class.%-28s %9d events %8.3f s %7.0f ns/event" name n s
                 (s *. 1e9 /. float_of_int n)))
        classes
    @ [
        Printf.sprintf
          "obs stack: armed %.3f s vs disarmed %.3f s (run phase at reference speed, median \
           of 2)"
          armed_run_s bare_run_s;
        (match speedup with
        | Some x ->
            Printf.sprintf "shard: 1 worker %.3f s, 2 workers %.3f s at reference speed: %.3fx"
              armed_run_s two_run_s x
        | None ->
            Printf.sprintf "des.shard.speedup_2w: unmeasured (host has %d core)" cores);
      ]
  in
  {
    metrics;
    notes;
    attempted = traced.offered;
    failed = traced.no_reply;
    problems;
  }

(* A metric that is not a finite number is a failed measurement. *)
let require_finite o =
  let bad =
    List.filter_map
      (fun m ->
        match m.value with
        | Some v when not (Float.is_finite v) -> Some (m.name ^ " is not a finite number")
        | _ -> None)
      o.metrics
  in
  { o with problems = o.problems @ bad }
