(* The gateway-fleet scenario — the multi-entity headline.

   One Samya cluster acts as the token registry of an API-gateway fleet:
   a million rate-limiter keys bulk-registered cold, Zipfian demand at
   100k requests per second of offered load, per-key quotas sized by
   Little's law from each key's expected in-flight tokens (rate x hold
   time, with headroom). The hot head of the popularity curve heats into
   full per-entity machines and redistributes through the site-level
   batched Avantan instances; the cold tail is served from the compact
   core ledgers without ever materialising protocol state.

   The scenario is data for the shared runner (Scenario) plus the
   per-key attribution the multi-entity driver collects
   ([track_entities]). Quick mode is the CI smoke: the same shape at 1/50
   the keys and 1/20 the rate. *)

type scale = {
  keys : int;
  rate_per_s : float;
  duration_ms : float;
  hold_ms : float;  (* rate-limit window: grant-driven release lifetime *)
  batch : int;  (* Config.protocol_batch *)
  shards : int;  (* Config.entity_shards *)
}

let scale ~quick =
  if quick then
    {
      keys = 20_000;
      rate_per_s = 5_000.0;
      duration_ms = 10_000.0;
      hold_ms = 1_000.0;
      batch = 128;
      shards = 64;
    }
  else
    {
      keys = 1_000_000;
      rate_per_s = 100_000.0;
      duration_ms = 20_000.0;
      hold_ms = 1_000.0;
      batch = 256;
      shards = 256;
    }

let n_sites = 5

(* [Printf.sprintf "key%07d" r], written directly: a fleet names its
   keys twice (registration and audit), 10^6 at a time. *)
let key_name r =
  if r < 0 || r > 9_999_999 then Printf.sprintf "key%07d" r
  else begin
    let b = Bytes.of_string "key0000000" in
    let rec digits i r =
      if r > 0 then begin
        Bytes.unsafe_set b i (Char.unsafe_chr (48 + (r mod 10)));
        digits (i - 1) (r / 10)
      end
    in
    digits 9 r;
    Bytes.unsafe_to_string b
  end

let key_home r = r mod n_sites

let read_ratio = 0.05

(* Per-key quota from Little's law: the expected number of in-flight
   tokens of rank r is (acquire rate of r) x (hold time), padded with 3x
   headroom — shares start split evenly across sites while 80% of a key's
   traffic hits its home site, so the home share must absorb most of the
   key's in-flight demand until redistribution catches up. The floor
   gives every site of a cold key a serviceable local share. *)
let quotas ~scale zipf =
  Array.init scale.keys (fun r ->
      let expected =
        scale.rate_per_s
        *. Trace.Zipf.probability zipf r
        *. (1.0 -. read_ratio)
        *. (scale.hold_ms /. 1000.0)
      in
      max (4 * n_sites) (int_of_float (ceil (5.0 *. expected))))

let config ~scale =
  {
    (Exp_common.samya_config Samya.Config.Majority) with
    (* The fleet runs reactive-only: one shared forecaster across 10^6
       keys would predict none of them well, and prediction timers per
       hot entity are exactly the per-entity overhead this scenario is
       designed to avoid. *)
    Samya.Config.prediction_enabled = false;
    (* A token-bucket check is microseconds of CPU, not the 150 us the
       VM-allocation experiments model: at 100k req/s (plus the release
       per grant) five sites would otherwise saturate their serial CPUs
       at 1/0.15 ms x 5 = 33k req/s and the fleet would measure its own
       queue, not Samya. *)
    local_processing_ms = 0.01;
    (* Hot keys run home-skewed and deficit-driven: a short cooldown lets
       a key's share chase its demand instead of parking requests for the
       default 2 s between redistributions. *)
    redistribution_cooldown_ms = 500.0;
    protocol_batch = scale.batch;
    entity_shards = scale.shards;
    entity_capacity = scale.keys;
  }

let requests ~scale zipf =
  let rng = Des.Rng.stream Exp_common.seed 1009 in
  Trace.Workload.gateway ~rng ~zipf ~key_name ~key_home ~n_clients:n_sites
    ~rate_per_s:scale.rate_per_s ~duration_ms:scale.duration_ms ~read_ratio ()

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let report ~scale ~quotas ~offered fmt (c : Scenario.capture) =
  let cluster = Option.get c.cluster in
  let hot = Samya.Cluster.hot_entities cluster in
  Format.fprintf fmt
    "@.== gateway fleet: %d keys, %.0f req/s offered (Zipf 0.99, %.0f s) ==@."
    scale.keys scale.rate_per_s
    (scale.duration_ms /. 1000.0);
  let r = c.result in
  let counted = r.Driver.committed + r.Driver.rejected + r.Driver.unavailable in
  Report.kv fmt
    [
      ("registered keys", string_of_int (Samya.Cluster.entity_count cluster));
      ( "hot keys after run",
        Printf.sprintf "%d (%s of fleet, summed over %d sites)" hot
          (pct (float_of_int hot /. float_of_int (n_sites * scale.keys)))
          n_sites );
      ("protocol batch", string_of_int scale.batch);
      ("entity shards/site", string_of_int scale.shards);
      ("offered requests", string_of_int offered);
      ( "counted replies",
        Printf.sprintf "%d (%d no-reply)" counted r.Driver.no_reply );
      ("redistributions", string_of_int c.stats.Systems.redistributions);
      ("messages sent", string_of_int c.stats.Systems.messages_sent);
    ];
  Report.table fmt ~title:"gateway fleet: outcomes and latency"
    ~header:[ "committed"; "rejected"; "unavailable"; "avg tps"; "p50"; "p95"; "p99" ]
    ~rows:
      [
        [
          string_of_int r.Driver.committed;
          string_of_int r.Driver.rejected;
          string_of_int r.Driver.unavailable;
          Report.f1 (Driver.average_tps r);
          Report.ms (Driver.percentile r 50.0);
          Report.ms (Driver.percentile r 95.0);
          Report.ms (Driver.percentile r 99.0);
        ];
      ];
  (* The figure: committed throughput over the run, 1 s windows. *)
  Scenario.figure fmt ~title:"gateway fleet: committed throughput (figure)" [ c ];
  (* Per-key attribution: the hottest keys by committed traffic. *)
  let top =
    List.stable_sort
      (fun (_, (a : Driver.entity_stats)) (_, b) ->
        Int.compare b.Driver.e_committed a.Driver.e_committed)
      r.Driver.by_entity
    |> List.filteri (fun i _ -> i < 10)
  in
  Report.table fmt ~title:"hottest keys (per-entity attribution)"
    ~header:[ "key"; "quota"; "committed"; "rejected"; "mean lat"; "max lat" ]
    ~rows:
      (List.map
         (fun (key, (e : Driver.entity_stats)) ->
           let rank = int_of_string (String.sub key 3 (String.length key - 3)) in
           [
             key;
             string_of_int quotas.(rank);
             string_of_int e.Driver.e_committed;
             string_of_int e.Driver.e_rejected;
             (if e.Driver.e_committed = 0 then "-"
              else
                Report.ms
                  (e.Driver.e_latency_sum_ms /. float_of_int e.Driver.e_committed));
             Report.ms e.Driver.e_latency_max_ms;
           ])
         top);
  (* The same hot head from the request-path sketch: what the incident
     layer sees in O(k) space, cross-checked against the exact per-key
     driver attribution above. The sketch counts every submitted request
     (acquires, releases, reads, before shedding), so estimates sit above
     the committed column; the Misra-Gries bound guarantees
     estimate <= true <= estimate + err. *)
  let sketch = Obs.Heavy_hitters.Windowed.cumulative c.hot in
  Report.table fmt
    ~title:"hot-key telemetry (request-path Misra-Gries sketch, k=16)"
    ~header:[ "key"; "estimate"; "+err"; "committed (exact)" ]
    ~rows:
      (List.map
         (fun (key, est) ->
           [
             key;
             string_of_int est;
             string_of_int (Obs.Heavy_hitters.error sketch);
             (match List.assoc_opt key r.Driver.by_entity with
             | Some e -> string_of_int e.Driver.e_committed
             | None -> "-");
           ])
         (Obs.Heavy_hitters.top ~n:8 sketch));
  Format.fprintf fmt
    "flight recorder: %d events recorded (%d dropped), watchdog incidents: %d@."
    (Obs.Flight_recorder.recorded c.flight)
    (Obs.Flight_recorder.dropped c.flight)
    (List.length c.incidents);
  (* The samya-slo/1 report (rendered; `slo gateway --out` writes the JSON). *)
  let lines = Obs.Slo.report c.slo in
  Report.table fmt
    ~title:
      (if Obs.Slo.healthy lines then "SLO (samya-slo/1): healthy"
       else "SLO (samya-slo/1): VIOLATED")
    ~header:[ "objective"; "target"; "windows"; "violations"; "overall" ]
    ~rows:
      (List.map
         (fun (l : Obs.Slo.report_line) ->
           let value v =
             if Float.is_nan v then "-"
             else if l.Obs.Slo.kind = "latency" then Report.ms v
             else pct v
           in
           [
             l.Obs.Slo.name;
             (if l.Obs.Slo.kind = "latency" then Report.ms l.Obs.Slo.target
              else pct l.Obs.Slo.target);
             string_of_int l.Obs.Slo.windows;
             string_of_int l.Obs.Slo.violations;
             value l.Obs.Slo.overall;
           ])
         lines);
  (* Conservation, key by key: Equation 1 against each key's own quota,
     after the drain, when the grant-driven releases have come home. *)
  match c.violations with
  | [] -> Format.fprintf fmt "token conservation: all %d keys audited OK@." scale.keys
  | violations ->
      Format.fprintf fmt "token conservation: %d keys VIOLATED (of %d):@."
        (List.length violations) scale.keys;
      List.iteri
        (fun i (key, reason) -> if i < 5 then Format.fprintf fmt "  %s: %s@." key reason)
        violations

let plan ~quick : Scenario.plan =
  let scale = scale ~quick in
  let zipf = Trace.Zipf.create scale.keys in
  let quotas = quotas ~scale zipf in
  let requests = requests ~scale zipf in
  {
    duration_ms = scale.duration_ms;
    requests;
    entities = Fleet { count = scale.keys; name = key_name; quota = Array.get quotas };
    faults = [];
    (* 2 s tumbling windows: the cold-start transient (shares chasing the
       home-skewed demand) lands in the first window or two and the
       steady-state windows show the converged fleet. *)
    window_ms = 2_000.0;
    (* At a million keys the per-key driver attribution is the expensive
       path — the sketch tracks the hot head in O(k) from the request path
       itself. *)
    sketch_k = 16;
    spec =
      (fun spec ->
        {
          spec with
          window_ms = 1_000.0;
          grant_driven_release_ms = Some scale.hold_ms;
          track_entities = true;
        });
    arms =
      [
        {
          id = "fleet";
          label = "Samya gateway fleet";
          name = "Samya gateway fleet";
          system = Samya (config ~scale);
          spec = Fun.id;
        };
      ];
    traced = [ "fleet" ];
    report =
      (fun fmt captures ->
        List.iter (report ~scale ~quotas ~offered:(Array.length requests) fmt) captures);
  }

let scenario =
  {
    Scenario.id = "gateway";
    paper_artifact = "multi-entity ext.";
    description = "million-key gateway fleet: Zipfian load over batched Avantan";
    plan = (fun _ctx ~quick -> plan ~quick);
  }
