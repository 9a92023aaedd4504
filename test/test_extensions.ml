(* Tests for the extension modules: the hierarchical org tracker. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let org_setup () =
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster = Samya.Cluster.create ~seed:5L ~config:Samya.Config.default ~regions () in
  let org = Hierarchy.Org.create ~cluster ~org_name:"acme" ~root_limit:1_000 in
  (cluster, org)

let org_paths_and_ancestors () =
  let _, org = org_setup () in
  let root = Hierarchy.Org.root org in
  let retail = Hierarchy.Org.add_unit org ~parent:root ~name:"retail" () in
  let clothing = Hierarchy.Org.add_unit org ~parent:retail ~name:"clothing" ~limit:200 () in
  check Alcotest.string "path" "acme/retail/clothing" (Hierarchy.Org.path org clothing);
  let ancestors = Hierarchy.Org.limited_ancestors org clothing in
  (* clothing (limited), retail skipped (unlimited), root (limited) *)
  check int "two limited levels" 2 (List.length ancestors);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Org.add_unit: duplicate unit name under this parent") (fun () ->
      ignore (Hierarchy.Org.add_unit org ~parent:retail ~name:"clothing" ()))

let org_charges_every_level () =
  let cluster, org = org_setup () in
  let engine = Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1 in
  let root = Hierarchy.Org.root org in
  let team = Hierarchy.Org.add_unit org ~parent:root ~name:"team" ~limit:300 () in
  let response = ref None in
  Des.Engine.schedule engine ~delay_ms:1.0 (fun () ->
      Hierarchy.Org.consume org ~node:team ~region:Geonet.Region.Us_west1 ~amount:50
        ~reply:(fun r -> response := Some r));
  Samya.Cluster.run_until cluster ~until_ms:60_000.0;
  check bool "granted" true (!response = Some Samya.Types.Granted);
  check int "team charged" 50 (Hierarchy.Org.usage org team);
  check int "root charged" 50 (Hierarchy.Org.usage org root)

let org_team_limit_binds () =
  let cluster, org = org_setup () in
  let engine = Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1 in
  let root = Hierarchy.Org.root org in
  let team = Hierarchy.Org.add_unit org ~parent:root ~name:"team" ~limit:100 () in
  let granted = ref 0 and denied = ref 0 in
  for i = 0 to 199 do
    Des.Engine.schedule_at engine
      ~time_ms:(float_of_int i *. 100.0)
      (fun () ->
        Hierarchy.Org.consume org ~node:team ~region:Geonet.Region.Us_west1 ~amount:1
          ~reply:(function
            | Samya.Types.Granted -> incr granted
            | _ -> incr denied))
  done;
  Samya.Cluster.run_until cluster ~until_ms:300_000.0;
  (* Avantan[(n+1)/2] pools a majority of sites per instance, so only the
     quorum's share of the team budget flows to the hot region; the limit
     itself can never be exceeded. *)
  check bool (Printf.sprintf "a quorum's worth granted (%d)" !granted) true (!granted >= 40);
  check bool "never beyond the team limit" true (!granted <= 100);
  check int "grants + denials account for all" 200 (!granted + !denied);
  check int "team usage equals grants" !granted (Hierarchy.Org.usage org team);
  (* The root was charged only for grants: compensation released the
     root-level tokens of denied attempts. *)
  check int "root usage equals grants" !granted (Hierarchy.Org.usage org root)

let org_release_returns_every_level () =
  let cluster, org = org_setup () in
  let engine = Samya.Cluster.engine_of_region cluster Geonet.Region.Us_west1 in
  let root = Hierarchy.Org.root org in
  let team = Hierarchy.Org.add_unit org ~parent:root ~name:"team" ~limit:300 () in
  Des.Engine.schedule engine ~delay_ms:1.0 (fun () ->
      Hierarchy.Org.consume org ~node:team ~region:Geonet.Region.Us_west1 ~amount:40
        ~reply:(fun _ ->
          Hierarchy.Org.return_resources org ~node:team ~region:Geonet.Region.Us_west1
            ~amount:15 ~reply:(fun _ -> ())));
  Samya.Cluster.run_until cluster ~until_ms:60_000.0;
  check int "team net" 25 (Hierarchy.Org.usage org team);
  check int "root net" 25 (Hierarchy.Org.usage org root)

let suite =
  [
    Alcotest.test_case "org: paths and ancestors" `Quick org_paths_and_ancestors;
    Alcotest.test_case "org: charges every level" `Quick org_charges_every_level;
    Alcotest.test_case "org: team limit binds with compensation" `Quick org_team_limit_binds;
    Alcotest.test_case "org: release returns every level" `Quick
      org_release_returns_every_level;
  ]
