(* The paper's Figure 1, live: ultraCloud tracks resource usage for its
   customer eCommerce.com, an org tree whose root carries the global VM
   limit and whose teams carry their own budgets. Every VM creation
   charges each limited ancestor; the hot root counter is dis-aggregated
   across the five geo-distributed sites by Samya, so teams on different
   continents consume concurrently without per-update synchronization.

     dune exec examples/org_quotas.exe *)

let () =
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster = Samya.Cluster.create ~config:Samya.Config.default ~regions ~seed:77L () in
  let org = Hierarchy.Org.create ~cluster ~org_name:"eCommerce.com" ~root_limit:3_000 in
  let root = Hierarchy.Org.root org in
  let retail = Hierarchy.Org.add_unit org ~parent:root ~name:"retail" () in
  let clothing = Hierarchy.Org.add_unit org ~parent:retail ~name:"clothing" ~limit:800 () in
  let electronics =
    Hierarchy.Org.add_unit org ~parent:retail ~name:"electronics" ~limit:1_500 ()
  in
  let platform = Hierarchy.Org.add_unit org ~parent:root ~name:"platform" ~limit:2_000 () in
  let granted = Hashtbl.create 4 and denied = Hashtbl.create 4 in
  let bump table node =
    Hashtbl.replace table node (1 + Option.value (Hashtbl.find_opt table node) ~default:0)
  in
  let rng = Des.Rng.create 77L in
  (* Each team creates VMs from its home region (on that region's
     simulation lane); demand exceeds several budgets so both team limits
     and the root limit end up binding. *)
  let teams =
    [ (clothing, Geonet.Region.Us_west1, 1_000);
      (electronics, Geonet.Region.Europe_west2, 1_800);
      (platform, Geonet.Region.Asia_east2, 2_400) ]
  in
  List.iter
    (fun (team, region, demand) ->
      let engine = Samya.Cluster.engine_of_region cluster region in
      for _ = 1 to demand do
        Des.Engine.schedule engine ~delay_ms:(Des.Rng.float rng 480_000.0) (fun () ->
            Hierarchy.Org.consume org ~node:team ~region ~amount:1 ~reply:(function
              | Samya.Types.Granted -> bump granted team
              | _ -> bump denied team))
      done)
    teams;
  Samya.Cluster.run_until cluster ~until_ms:900_000.0;
  Format.printf "eCommerce.com on ultraCloud: root limit 3000 VMs@.@.";
  List.iter
    (fun (team, _, demand) ->
      Format.printf "  %-34s demanded %4d  granted %4d  denied %4d@."
        (Hierarchy.Org.path org team)
        demand
        (Option.value (Hashtbl.find_opt granted team) ~default:0)
        (Option.value (Hashtbl.find_opt denied team) ~default:0))
    teams;
  Format.printf "@.  root usage %d / 3000 (availability %d)@."
    (Hierarchy.Org.usage org root)
    (Hierarchy.Org.availability org root);
  Format.printf "  clothing usage %d / 800, platform usage %d / 2000@."
    (Hierarchy.Org.usage org clothing)
    (Hierarchy.Org.usage org platform);
  assert (Hierarchy.Org.usage org root <= 3_000);
  assert (Hierarchy.Org.usage org clothing <= 800);
  Format.printf "@.every limit on every path held; redistributions executed: %d@."
    (Samya.Cluster.total_redistributions cluster)
