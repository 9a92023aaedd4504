(* Quickstart: a five-region Samya deployment tracking one resource.

   Build a cluster, set a global limit, acquire and release tokens from
   different regions, take a global-snapshot read, and verify the system
   constraint (Equation 1 of the paper). Run with:

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A cluster: one site per region, Avantan[(n+1)/2] redistribution. *)
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions ~seed:7L ()
  in
  (* 2. An entity: clients may hold at most 5000 "VM" tokens in total.
        Each site starts with an equal share (1000). *)
  Samya.Cluster.init_entity cluster ~entity:"VM" ~maximum:5_000;

  (* 3. Clients: acquire from two regions, release from one. Replies are
        callbacks; the simulation delivers them with realistic
        geo-latency. *)
  let show label response =
    Format.printf "  %-28s -> %a@." label Samya.Types.pp_response response
  in
  Samya.Cluster.submit cluster ~region:Geonet.Region.Us_west1
    (Samya.Types.Acquire { entity = "VM"; amount = 3; deadline_ms = infinity })
    ~reply:(show "us-west acquires 3 VMs");
  Samya.Cluster.submit cluster ~region:Geonet.Region.Asia_east2
    (Samya.Types.Acquire { entity = "VM"; amount = 10; deadline_ms = infinity })
    ~reply:(show "asia acquires 10 VMs");
  Samya.Cluster.submit cluster ~region:Geonet.Region.Us_west1
    (Samya.Types.Release { entity = "VM"; amount = 1; deadline_ms = infinity })
    ~reply:(show "us-west releases 1 VM");

  (* 4. A global-snapshot read (fans out to every site). *)
  Samya.Cluster.submit cluster ~region:Geonet.Region.Europe_west2
    (Samya.Types.Read { entity = "VM"; deadline_ms = infinity })
    ~reply:(show "europe reads availability");

  (* 5. Run the virtual clock (every region's lane) until everything
        settles. *)
  Samya.Cluster.run_until cluster ~until_ms:60_000.0;

  Format.printf "@.per-site state:@.";
  Array.iter
    (fun site ->
      Format.printf "  %-22s tokens_left=%4d acquired_net=%2d@."
        (Geonet.Region.name regions.(Samya.Site.id site))
        (Samya.Site.tokens_left site ~entity:"VM")
        (Samya.Site.acquired_net site ~entity:"VM"))
    (Samya.Cluster.sites cluster);
  match Samya.Cluster.check_invariant cluster ~entity:"VM" ~maximum:5_000 with
  | Ok () -> Format.printf "Equation 1 holds: total acquired <= 5000, tokens conserved.@."
  | Error e -> Format.printf "invariant violated: %s@." e
