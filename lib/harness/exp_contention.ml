(* The adaptive-contention scenario — the Mechanism API headline.

   One hot entity on a 5-site cluster, driven through a three-phase
   skew ramp:

   - P0 "cold": light uniform load every site serves from its own
     escrow share — any token movement is pure overhead;
   - P1 "skewed": demand concentrates on the home site at a rate its
     share cannot hold, while every peer has plenty spare — a
     one-conversation peer borrow is strictly cheaper than a consensus
     round;
   - P2 "pressure": the home rate keeps climbing until it needs nearly
     the whole global pool — peer-at-a-time borrowing starves (each
     conversation parks the queue for an RTT and brings back one peer's
     headroom), and only batched Avantan re-division tracks demand.

   Four arms replay the identical stream through the controller: three
   with the mechanism pinned (escrow-only, borrow-only,
   redistribute-only) and one adaptive. No single static policy wins
   every phase; the controller's job is to track whichever does. The
   verdict table checks exactly that, per phase, on committed
   throughput AND p99. *)

type phase_def = {
  ph_name : string;
  ph_until_ms : float;
  ph_rate_per_s : float;
  ph_affinity : float;
}

type scale = {
  phases : phase_def list;  (* contiguous, last one ends the stream *)
  duration_ms : float;
  hold_ms : float;  (* grant lifetime: the driver's grant-driven release *)
  quota : int;  (* the hot entity's global maximum *)
}

let scale ~quick =
  let p name until rate affinity =
    {
      ph_name = name;
      ph_until_ms = until;
      ph_rate_per_s = rate;
      ph_affinity = affinity;
    }
  in
  (* Quick mode ends each phase earlier; the last phase ends the run. *)
  let cold, skewed, pressure =
    if quick then (8_000.0, 20_000.0, 32_000.0) else (15_000.0, 40_000.0, 70_000.0)
  in
  {
    phases =
      [
        p "cold" cold 100.0 0.2;
        p "skewed" skewed 600.0 0.9;
        p "pressure" pressure 1_800.0 0.4;
      ];
    duration_ms = pressure;
    hold_ms = 1_000.0;
    quota = 2_000;
  }

let n_sites = 5

let entity = "hotkey"

let home = 0

(* Every arm runs the controller — the statics just pin its policy, so
   the dispatch overhead is identical and the comparison isolates the
   decision, not the plumbing. *)
let config ~policy =
  {
    (Exp_common.samya_config Samya.Config.Majority) with
    (* The stream is reactive contention, not forecastable epochs. The
       redistribute mechanism still sizes asks via Equation 5. *)
    Samya.Config.prediction_enabled = false;
    (* An acquire is cheap; the interesting cost is token movement. *)
    local_processing_ms = 0.2;
    (* Let the hot share chase the ramp instead of parking demand for
       the default 2 s between instances. *)
    redistribution_cooldown_ms = 500.0;
    controller =
      {
        Samya.Config.Controller.enabled = true;
        policy;
        window_ms = 500.0;
        escalate_contention = 0.1;
        deescalate_margin = 0.5;
        borrow_fail_escalate = 0.3;
        p99_target_ms = 250.0;
        dwell_ms = 1_000.0;
        cooldown_ms = 500.0;
        borrow_quantum = 150;
        borrow_patience_ms = 500.0;
      };
  }

let requests ~scale:s =
  let rng = Des.Rng.stream Exp_common.seed 1019 in
  Trace.Workload.skew_ramp ~rng ~entity ~home ~n_clients:n_sites
    ~phases:
      (List.map
         (fun p ->
           {
             Trace.Workload.until_ms = p.ph_until_ms;
             rate_per_s = p.ph_rate_per_s;
             home_affinity = p.ph_affinity;
           })
         s.phases)
    ()

(* Interior boundaries for the driver's per-phase accounting: every
   phase end except the last (which is the stream end). *)
let boundaries ~scale:s =
  match List.rev s.phases with
  | [] -> [||]
  | _last :: rest -> Array.of_list (List.rev_map (fun p -> p.ph_until_ms) rest)

(* The home site's token-movement mechanism at the end of the run. *)
let final_mechanism (c : Scenario.capture) =
  match Samya.Site.mechanism (Samya.Cluster.site (Option.get c.cluster) home) ~entity with
  | Some m -> Samya.Config.Controller.mechanism_name m
  | None -> "-"

(* Per-phase view: committed txn/s over the phase's wall time, p99 of
   its committed latencies. *)
type phase_row = { v_name : string; v_tps : float; v_p99 : float }

let phase_rows_at s (c : Scenario.capture) =
  let starts =
    0.0 :: List.map (fun p -> p.ph_until_ms) s.phases |> Array.of_list
  in
  List.mapi
    (fun i p ->
      let stats = c.result.Driver.by_phase.(i) in
      let dur_s = (p.ph_until_ms -. starts.(i)) /. 1000.0 in
      {
        v_name = p.ph_name;
        v_tps = float_of_int stats.Driver.p_committed /. dur_s;
        v_p99 = Stats.Sample_set.percentile stats.Driver.p_latencies 99.0;
      })
    s.phases

let phase_rows ~quick = phase_rows_at (scale ~quick)

(* The verdict: in each phase, the benchmark is the static arm with the
   highest committed throughput (ties broken by lower p99 — the Pareto
   winner). The adaptive arm must meet that arm's throughput AND its
   p99, both within tolerance. Latency is judged against the arm that
   actually achieves the throughput: an arm that posts a tiny p99 by
   rejecting every hard request (static escrow under pressure) is not a
   meaningful latency target. *)
let tps_tolerance = 0.10
let p99_tolerance = 0.25

(* Below one nearest-peer round trip, tail differences are noise: any
   mechanism that moves tokens at all pays at least this much on the
   requests that needed the movement, so the adaptive arm is never
   penalised for a sub-RTT gap (e.g. its escalation transient at a
   phase boundary). *)
let p99_floor_ms = 100.0

let verdict_rows s (captures : Scenario.capture list) =
  let rows c = Array.of_list (phase_rows_at s c) in
  let adaptive, statics =
    List.partition (fun (c : Scenario.capture) -> c.arm.id = "adaptive") captures
  in
  let statics = List.map (fun (c : Scenario.capture) -> (c.arm.label, rows c)) statics in
  let adaptive =
    match adaptive with
    | c :: _ -> rows c
    | [] -> invalid_arg "Exp_contention.verdicts: no adaptive arm"
  in
  List.mapi
    (fun i p ->
      let label, best =
        match statics with
        | [] -> invalid_arg "Exp_contention.verdicts: no static arms"
        | (l0, r0) :: rest ->
            List.fold_left
              (fun (bl, (b : phase_row)) (label, rs) ->
                let r = rs.(i) in
                if
                  r.v_tps > b.v_tps
                  || (r.v_tps = b.v_tps && r.v_p99 < b.v_p99)
                then (label, r)
                else (bl, b))
              (l0, r0.(i)) rest
      in
      let a = adaptive.(i) in
      let tps_ok = a.v_tps >= best.v_tps *. (1.0 -. tps_tolerance) in
      let p99_ok =
        a.v_p99 <= Float.max p99_floor_ms (best.v_p99 *. (1.0 +. p99_tolerance))
      in
      [
        p.ph_name;
        label;
        Report.f1 best.v_tps;
        Report.f1 a.v_tps;
        Report.ms best.v_p99;
        Report.ms a.v_p99;
        (if tps_ok && p99_ok then "adaptive MATCHES" else "adaptive TRAILS");
      ])
    s.phases

let report s ~offered fmt (captures : Scenario.capture list) =
  Format.fprintf fmt
    "@.== contention controller: skew ramp on one entity (%d tokens, %d sites) ==@."
    s.quota n_sites;
  Report.kv fmt
    (List.map
       (fun p ->
         ( "phase " ^ p.ph_name,
           Printf.sprintf "until %.0f s: %.0f req/s, %.0f%% home"
             (p.ph_until_ms /. 1000.0)
             p.ph_rate_per_s
             (100.0 *. p.ph_affinity) ))
       s.phases
    @ [ ("grant lifetime", Report.ms s.hold_ms) ]);
  let policy = Scenario.label "policy" in
  (* Outcomes: totals per arm, with the mechanism traffic that produced
     them. *)
  Scenario.table fmt ~title:"contention: arm outcomes"
    Scenario.
      [
        policy;
        count "offered" (fun _ -> offered);
        committed;
        rejected;
        p50;
        p99;
        redistributions;
        borrows;
        switches;
        ("final mech", final_mechanism);
      ]
    captures;
  (* The per-phase breakdown: who wins where. *)
  let by_phase title cell =
    Scenario.table fmt ~title
      (policy
      :: List.mapi
           (fun i p -> (p.ph_name, fun c -> cell (List.nth (phase_rows_at s c) i)))
           s.phases)
      captures
  in
  by_phase "contention: committed txn/s by phase" (fun v -> Report.f1 v.v_tps);
  by_phase "contention: p99 latency by phase" (fun v -> Report.ms v.v_p99);
  (* The figure: committed throughput over time — the static arms each
     fall off in the phase that defeats their mechanism, the adaptive
     line hugs the upper envelope. *)
  Scenario.figure fmt ~title:"contention: committed throughput (figure)" captures;
  (* The verdict: adaptive vs the best static, per phase, both axes. *)
  Report.table fmt ~title:"contention: adaptive vs best static (verdict)"
    ~header:
      [ "phase"; "best static"; "best tps"; "adaptive tps"; "best p99"; "adaptive p99"; "verdict" ]
    ~rows:(verdict_rows s captures);
  Scenario.slo_lines fmt captures;
  (* Token conservation per arm, after the drain: borrowing moves tokens
     ledger-to-ledger and must never mint or leak. *)
  Scenario.conservation fmt captures;
  (* The adaptive arm's controller decisions, straight from the black
     box: when it switched, from what, to what — the attribution a
     post-incident review starts from. *)
  match List.find_opt (fun (c : Scenario.capture) -> c.arm.id = "adaptive") captures with
  | None -> ()
  | Some c ->
      Format.fprintf fmt "@.mechanism timeline (adaptive, flight recorder):@.";
      List.iter
        (fun (ev : Obs.Flight_recorder.event) ->
          if ev.kind = Mech then Format.fprintf fmt "  %s@." (Obs.Flight_recorder.line ev))
        (Obs.Flight_recorder.events c.flight);
      Scenario.recorder_line ~rules:true fmt c

let plan ~quick : Scenario.plan =
  let s = scale ~quick in
  let requests = requests ~scale:s in
  let arm id label policy : Scenario.arm =
    {
      id;
      label;
      name = Printf.sprintf "Samya skew ramp (%s)" label;
      system = Samya (config ~policy);
      spec = Fun.id;
    }
  in
  {
    duration_ms = s.duration_ms;
    requests;
    entities = Hot { entity; maximum = s.quota };
    faults = [];
    window_ms = 2_000.0;
    sketch_k = 8;
    spec =
      (fun spec ->
        {
          spec with
          window_ms = 1_000.0;
          grant_driven_release_ms = Some s.hold_ms;
          phases = boundaries ~scale:s;
        });
    (* Mechanism switches land in the recorder, so the watchdog's flap
       rule watches the controller of every arm. *)
    arms =
      Samya.Config.Controller.
        [
          arm "escrow" "static escrow" (Static Escrow);
          arm "borrow" "static borrow" (Static Borrow);
          arm "redistribute" "static redistribute" (Static Redistribute);
          arm "adaptive" "adaptive" Adaptive;
        ];
    (* Mechanism switches appear as zero-width mech.switch phases, borrow
       conversations as mech.borrow phases on the requests they parked. *)
    traced = [ "adaptive" ];
    report = report s ~offered:(Array.length requests);
  }

let scenario =
  {
    Scenario.id = "contention";
    paper_artifact = "controller ext.";
    description = "skew-ramp contention: static mechanisms vs adaptive controller";
    plan = (fun _ctx ~quick -> plan ~quick);
  }
