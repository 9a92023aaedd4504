(* Command-line front end for the Samya reproduction.

   samya-cli list                     -- experiment index
   samya-cli run table2b [--quick]    -- run one experiment
   samya-cli run-all [--quick]        -- every experiment
   samya-cli bench [ids...] [--quick] -- the full benchmark runner
   samya-cli trace headline [--quick] -- export a Chrome trace of a run
   samya-cli explain headline         -- critical-path latency attribution
   samya-cli slo headline [--out F]   -- online SLO report (samya-slo/1)
   samya-cli report headline          -- self-contained HTML/md run report
   samya-cli perf-gate --baseline ... -- CI micro-bench regression gate
   samya-cli workload [--days N]      -- inspect the synthetic Azure trace
   samya-cli demo [--star]            -- drive a small cluster end to end
   samya-cli chaos --seed N           -- one audited nemesis run, replayable *)

open Cmdliner

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Short durations (smoke mode).")

let list_cmd =
  let run () =
    Format.printf "%-10s %-22s %s@." "id" "paper artifact" "description";
    Format.printf "%s@." (String.make 80 '-');
    List.iter
      (fun e ->
        Format.printf "%-10s %-22s %s@." e.Harness.Registry.id
          e.Harness.Registry.paper_artifact e.Harness.Registry.description)
      Harness.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures.")
    Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let run id quick engine_jobs =
    Harness.Pool.set_engine_jobs engine_jobs;
    let ctx = Harness.Lab.create () in
    match Harness.Registry.run_by_id ctx ~quick Format.std_formatter id with
    | Ok () -> 0
    | Error message ->
        Format.eprintf "error: %s@." message;
        2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment by id (see `list`).")
    Term.(const run $ id_arg $ quick_flag $ Cli.Args.engine_jobs)

let run_all_cmd =
  let run quick engine_jobs =
    Harness.Pool.set_engine_jobs engine_jobs;
    let ctx = Harness.Lab.create () in
    List.iter
      (fun e ->
        if e.Harness.Registry.id <> "fig3b" then
          e.Harness.Registry.run ctx ~quick Format.std_formatter)
      Harness.Registry.all;
    0
  in
  Cmd.v
    (Cmd.info "run-all" ~doc:"Run every experiment in DESIGN.md order.")
    Term.(const run $ quick_flag $ Cli.Args.engine_jobs)

let workload_cmd =
  let days =
    Arg.(value & opt int 7 & info [ "days" ] ~doc:"Days of trace to generate.")
  in
  let run days =
    let params = { Trace.Azure_trace.default_params with days } in
    let trace = Trace.Azure_trace.generate params in
    let demand = Trace.Azure_trace.demand trace in
    let usage = Trace.Azure_trace.net_usage trace in
    Format.printf "synthetic Azure-like trace: %d days, %d intervals of %.0f s@." days
      (Trace.Azure_trace.length trace) trace.Trace.Azure_trace.interval_s;
    Format.printf "demand/interval: mean %.1f, max %.0f; daily autocorrelation %.2f@."
      (Stats.Series.mean demand)
      (Array.fold_left Float.max neg_infinity demand)
      (Stats.Series.autocorrelation demand (24 * 12));
    Format.printf "tracked usage: %.0f .. %.0f tokens@."
      (Array.fold_left Float.min infinity usage)
      (Array.fold_left Float.max neg_infinity usage);
    (* Small ASCII profile of day 2. *)
    let day = 24 * 12 in
    if Trace.Azure_trace.length trace >= 2 * day then begin
      let peak =
        Float.max 1.0
          (Array.fold_left Float.max 1.0 (Array.sub demand day day))
      in
      Format.printf "@.day-2 demand profile (each row = 1 h):@.";
      for hour = 0 to 23 do
        let bucket = Array.sub demand (day + (hour * 12)) 12 in
        let m = Stats.Series.mean bucket in
        let width = int_of_float (40.0 *. m /. peak) in
        Format.printf "  %02d:00 %s %.0f@." hour (String.make (max 1 width) '#') m
      done
    end;
    0
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate and summarise the synthetic workload trace.")
    Term.(const run $ days)

let demo_cmd =
  let star = Arg.(value & flag & info [ "star" ] ~doc:"Use Avantan[*].") in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Print the structured protocol-event feed (elections, accepts, decisions).")
  in
  let run star events =
    let variant = if star then Samya.Config.Star else Samya.Config.Majority in
    let config = { Samya.Config.default with variant } in
    let regions = Array.of_list Geonet.Region.default_five in
    (* The hook needs the virtual clock of the reporting site's lane,
       which only exists once the cluster does: close over a forward
       cell. *)
    let cluster_cell = ref None in
    let on_protocol_event =
      if not events then None
      else
        Some
          (fun ~site ~entity:_ event ->
            let now =
              match !cluster_cell with
              | Some c -> Des.Engine.now (Samya.Cluster.engine_of_region c regions.(site))
              | None -> 0.0
            in
            Format.printf "  [%8.1f ms] site %d: %a@." now site
              Samya.Avantan_core.pp_event event)
    in
    let cluster = Samya.Cluster.create ~config ~regions ?on_protocol_event () in
    cluster_cell := Some cluster;
    Samya.Cluster.init_entity cluster ~entity:"VM" ~maximum:5_000;
    Format.printf "5-site Samya cluster, M_e(VM) = 5000, variant %s@."
      (match variant with Samya.Config.Majority -> "Avantan[(n+1)/2]" | _ -> "Avantan[*]");
    let granted = ref 0 and rejected = ref 0 in
    (* The burst comes from region 0's clients, on that region's lane. *)
    let engine = Samya.Cluster.engine_of_region cluster regions.(0) in
    for i = 0 to 2_499 do
      Des.Engine.schedule engine ~delay_ms:(float_of_int i *. 1.5) (fun () ->
          Samya.Cluster.submit cluster ~region:regions.(0)
            (Samya.Types.Acquire { entity = "VM"; amount = 1; deadline_ms = infinity })
            ~reply:(function
              | Samya.Types.Granted -> incr granted
              | _ -> incr rejected))
    done;
    Samya.Cluster.run_until cluster ~until_ms:600_000.0;
    Format.printf
      "region %s acquired %d VMs (rejected %d) against a local share of 1000:@."
      (Geonet.Region.name regions.(0))
      !granted !rejected;
    Format.printf "redistributions moved spare tokens from the other regions:@.";
    Array.iter
      (fun site ->
        Format.printf "  site %d (%s): tokens_left=%d acquired_net=%d@."
          (Samya.Site.id site)
          (Geonet.Region.name regions.(Samya.Site.id site))
          (Samya.Site.tokens_left site ~entity:"VM")
          (Samya.Site.acquired_net site ~entity:"VM"))
      (Samya.Cluster.sites cluster);
    (match Samya.Cluster.check_invariant cluster ~entity:"VM" ~maximum:5_000 with
    | Ok () -> Format.printf "global invariant (Equation 1): OK@."
    | Error e -> Format.printf "global invariant violated: %s@." e);
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Drive a small cluster end to end and show redistribution.")
    Term.(const run $ star $ events)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for the whole run (workload, cluster, fault schedule).")
  in
  let variant =
    let variant_conv =
      Arg.enum [ ("majority", Samya.Config.Majority); ("star", Samya.Config.Star) ]
    in
    Arg.(
      value
      & opt variant_conv Samya.Config.Majority
      & info [ "variant" ] ~docv:"VARIANT" ~doc:"Avantan variant: $(b,majority) or $(b,star).")
  in
  let freeze =
    Arg.(
      value & flag
      & info [ "freeze" ]
          ~doc:"Use the legacy freeze crash model instead of crash-amnesia recovery.")
  in
  let sync =
    let sync_conv =
      Arg.enum
        [
          ("always", Storage.Durable.Sync_always);
          ("batched", Storage.Durable.Sync_batched 8);
          ("never", Storage.Durable.Sync_never);
        ]
    in
    Arg.(
      value
      & opt sync_conv Storage.Durable.Sync_always
      & info [ "sync" ] ~docv:"POLICY"
          ~doc:
            "Durability sync policy: $(b,always), $(b,batched) (group of 8) or \
             $(b,never). With $(b,never) the auditor is expected to catch \
             ballot-reuse divergence under unlucky seeds.")
  in
  let duration =
    Arg.(
      value & opt float 120.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Seconds of client traffic (virtual time).")
  in
  let sites =
    Arg.(value & opt int 5 & info [ "sites" ] ~doc:"Number of sites (>= 2).")
  in
  let run seed variant freeze sync duration sites engine_jobs =
    let report =
      Chaos.Soak.run ~n_sites:sites ~engine_jobs
        ~config:
          {
            Chaos.Soak.single_key_config with
            variant;
            amnesia_on_crash = not freeze;
            durability_sync = sync;
          }
        ~workload:{ Chaos.Soak.single_key with duration_ms = duration *. 1_000.0 }
        ~seed ()
    in
    Format.printf "%a@." Chaos.Soak.pp_report report;
    if Chaos.Soak.passed report then 0 else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one seed-reproducible nemesis schedule (crashes, partitions, \
          drops, duplication, latency spikes) against a Samya cluster and \
          audit token conservation.")
    Term.(
      const run $ seed $ variant $ freeze $ sync $ duration $ sites
      $ Cli.Args.engine_jobs)

let () =
  let doc = "Samya (ICDE 2021) reproduction: geo-distributed aggregate data system" in
  let info = Cmd.info "samya-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            run_all_cmd;
            Cli.Bench_cmd.cmd;
            Cli.Trace_cmd.cmd;
            Cli.Explain_cmd.cmd;
            Cli.Slo_cmd.cmd;
            Cli.Report_cmd.cmd;
            Cli.Perf_gate_cmd.cmd;
            workload_cmd;
            demo_cmd;
            chaos_cmd;
          ]))
