(* The paper's systems under tracing: the headline's five systems, or
   the fig3f prediction-on/off Samya pair, each captured through the same
   facade/obs path so the ablation is explainable and SLO-monitored like
   everything else. Every arm is traced. *)
let paper_plan ctx ~quick builders =
  (* Tracing is for inspecting behaviour, not reproducing the paper's
     numbers: a shorter horizon keeps the trace loadable (every message
     hop and protocol instance becomes a span). The first proactive
     redistribution trigger fires around 90 s of virtual time, so even
     the quick horizon runs past it. *)
  let duration_ms = if quick then 100_000.0 else 180_000.0 in
  (* Start at the daily peak with an inflated usage footprint (the
     fig3e/fig3c setup) so the short window still shows redistributions —
     otherwise the protocol lanes of the trace would be empty. *)
  let requests =
    Lab.workload ctx ~client_regions:(Exp_common.client_regions ()) ~duration_ms
      ~usage_scale:2.2 ~start_hours:6.0 ~seed:Exp_common.seed ()
  in
  (* A trace keeps the runner's 10 s drain and the driver's 10 s window,
     not a paper figure's 30 s drain. *)
  {
    (Scenario.paper ~duration_ms ~requests ~window_ms:10_000.0 ~report:(fun _ _ -> ())
       builders)
    with
    spec = Fun.id;
  }

let headline ctx ~quick = paper_plan ctx ~quick (Exp_headline.builders ctx)

let prediction ctx ~quick =
  let maj = Exp_common.samya_config Samya.Config.Majority in
  paper_plan ctx ~quick
    (Exp_ablations.samya_builders ctx
       [
         ("Samya w/ prediction", maj);
         ("Samya w/o prediction", { maj with Samya.Config.prediction_enabled = false });
       ])

(* One lookup by experiment id; the headline also answers to its
   registry spellings. *)
let traceable =
  [
    ("headline", headline);
    ("table2b", headline);
    ("fig3b", headline);
    ("prediction", prediction);
  ]
  @ List.map (fun (s : Scenario.t) -> (s.id, s.plan)) Registry.scenarios

let experiments = List.map fst traceable

let run ctx ~quick ~experiment =
  match List.assoc_opt experiment traceable with
  | Some plan -> Ok (Scenario.trace (plan ctx ~quick))
  | None ->
      Error
        (Printf.sprintf "unknown traceable experiment %S; known: %s" experiment
           (String.concat ", " experiments))

let label (c : Scenario.capture) = c.arm.name

let sink (c : Scenario.capture) = Option.get c.sink

let trace_json captures =
  let buf = Buffer.create (1 lsl 16) in
  Obs.Export.trace_json buf
    (List.map (fun c -> (label c, (sink c).Obs.Sink.log)) captures);
  Buffer.contents buf

let metrics_json ?meta captures =
  let buf = Buffer.create (1 lsl 14) in
  Obs.Export.metrics_json buf ?meta
    (List.map (fun c -> (label c, (sink c).Obs.Sink.metrics)) captures);
  Buffer.contents buf

let slo_json ?meta captures =
  let buf = Buffer.create (1 lsl 12) in
  Obs.Export.slo_json buf ?meta
    (List.map
       (fun (c : Scenario.capture) -> (label c, Obs.Slo.window_ms c.slo, Obs.Slo.report c.slo))
       captures);
  Buffer.contents buf

let spans_and_instants c =
  List.length (List.filter Obs.Trace_log.is_span (Obs.Trace_log.events (sink c).Obs.Sink.log))

let summary fmt captures =
  Scenario.table fmt ~title:"trace capture"
    [
      ("system", label);
      Scenario.committed;
      Scenario.count "spans+instants" spans_and_instants;
      Scenario.messages;
    ]
    captures

(* ------------------------------------------------------------------ *)
(* Critical-path explanation                                            *)

let breakdowns c = Obs.Critical_path.analyze (Obs.Trace_log.events (sink c).Obs.Sink.log)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

(* Folds critical-path component names into the token-movement mechanism
   (or transport/serving layer) that produced the time — the
   [explain --mechanism] view. Controller switches are zero-width
   markers, so "controller" is attribution of the switch instant, not a
   cost pool. *)
let mechanism_bucket comp =
  let has_prefix p = String.starts_with ~prefix:p comp in
  if has_prefix "protocol.mech.switch" then "controller"
  else if comp = "queue.borrow" || has_prefix "protocol.mech.borrow" then
    "borrow"
  else if comp = "queue.redistribution" || has_prefix "protocol." then
    "redistribute"
  else if comp = "queue.cpu" || comp = "local.service" then "local"
  else if comp = "wan.client" then "client wan"
  else if has_prefix "wan." then "replication"
  else "other"

let add totals name ms =
  Hashtbl.replace totals name (Option.value (Hashtbl.find_opt totals name) ~default:0.0 +. ms)

let explain fmt ?(by_mechanism = false) ~slowest captures =
  List.iter
    (fun c ->
      let events = Obs.Trace_log.events (sink c).Obs.Sink.log in
      let bds = Obs.Critical_path.analyze events in
      let n = List.length bds in
      Format.fprintf fmt "@.== %s ==@." (label c);
      if n = 0 then Format.fprintf fmt "no completed traced requests@."
      else begin
        let fractions = List.map Obs.Critical_path.attributed_fraction bds in
        let min_f = List.fold_left Float.min 1.0 fractions in
        let mean_f = List.fold_left ( +. ) 0.0 fractions /. float_of_int n in
        let submitted = Obs.Critical_path.submitted_count events in
        Report.kv fmt
          [
            ("traced requests", Printf.sprintf "%d submitted, %d completed" submitted n);
            ( "latency attributed",
              Printf.sprintf "mean %s, min %s of wall time" (pct mean_f) (pct min_f) );
          ];
        (* Aggregate attribution across every completed request. *)
        let totals = Hashtbl.create 16 in
        List.iter
          (fun (b : Obs.Critical_path.breakdown) ->
            List.iter (fun (c : Obs.Critical_path.component) -> add totals c.comp c.ms) b.components)
          bds;
        let wall_total =
          List.fold_left (fun acc (b : Obs.Critical_path.breakdown) -> acc +. b.wall_ms) 0.0 bds
        in
        (* A (name -> ms) total as table rows, largest share first. *)
        let shares title header totals =
          Report.table fmt ~title ~header:[ header; "total"; "share of wall" ]
            ~rows:
              (Hashtbl.fold (fun name ms acc -> (name, ms) :: acc) totals []
              |> List.sort (fun (na, ma) (nb, mb) ->
                     let c = Float.compare mb ma in
                     if c <> 0 then c else String.compare na nb)
              |> List.map (fun (name, ms) ->
                     [
                       name;
                       Report.ms ms;
                       (if wall_total > 0.0 then pct (ms /. wall_total) else "-");
                     ]))
        in
        shares "where the time went (all completed requests)" "component" totals;
        if by_mechanism then begin
          let buckets = Hashtbl.create 8 in
          Hashtbl.iter (fun comp ms -> add buckets (mechanism_bucket comp) ms) totals;
          shares "where the time went, by mechanism" "mechanism" buckets
        end;
        let top = Obs.Critical_path.slowest slowest bds in
        Report.table fmt
          ~title:(Printf.sprintf "slowest %d requests" (List.length top))
          ~header:[ "trace"; "kind"; "outcome"; "wall"; "critical path" ]
          ~rows:
            (List.map
               (fun (b : Obs.Critical_path.breakdown) ->
                 [
                   string_of_int b.trace;
                   (* entity-named requests (the gateway fleet) show their
                      key; the bound-entity experiments stay as before *)
                   (if b.entity = "" then b.kind else b.kind ^ "@" ^ b.entity);
                   b.outcome;
                   Report.ms b.wall_ms;
                   String.concat ", "
                     (List.map
                        (fun (comp : Obs.Critical_path.component) ->
                          comp.comp ^ " " ^ Report.ms comp.ms)
                        b.components);
                 ])
               top)
      end)
    captures

let slo_summary fmt captures =
  List.iter
    (fun (c : Scenario.capture) ->
      Format.fprintf fmt "@.== %s (window %.0f s) ==@." (label c)
        (Obs.Slo.window_ms c.slo /. 1000.0);
      let header, rows = Scenario.slo_table ~worst:true c in
      Report.table fmt ~title:("SLO: " ^ snd Scenario.slo c) ~header ~rows)
    captures
