(* Tests for the extension modules: the pluggable reallocation policies
   and the hierarchical org tracker. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reallocation policies *)

open Samya.Reallocation

let entry site tokens_left tokens_wanted = { site; tokens_left; tokens_wanted }

let entries_gen =
  QCheck.Gen.(
    let entry_gen site =
      map2 (fun tl tw -> { site; tokens_left = tl; tokens_wanted = tw })
        (int_bound 2_000) (int_bound 800)
    in
    int_range 1 12 >>= fun n -> flatten_l (List.init n entry_gen))

let arbitrary_entries = QCheck.make ~print:(fun es -> string_of_int (List.length es)) entries_gen

let policies = [ Max_usage; Max_requests; Proportional ]

let all_policies_conserve =
  QCheck.Test.make ~count:300 ~name:"every policy conserves tokens" arbitrary_entries
    (fun entries ->
      List.for_all
        (fun policy -> conserves_tokens entries (redistribute_with policy entries))
        policies)

let max_requests_satisfies_at_least_as_many =
  QCheck.Test.make ~count:300
    ~name:"max-requests satisfies >= as many requests as max-usage" arbitrary_entries
    (fun entries ->
      let satisfied policy =
        redistribute_with policy entries
        |> List.filter (fun g -> g.wanted_satisfied)
        |> List.length
      in
      satisfied Max_requests >= satisfied Max_usage)

let proportional_scales () =
  (* Pool 100 against wants 150+50: grants scale by 1/2. *)
  let entries = [ entry 0 0 150; entry 1 0 50; entry 2 100 0 ] in
  let grants = redistribute_with Proportional entries in
  let grant site = (List.find (fun g -> g.site = site) grants).new_tokens_left in
  check bool "big request scaled" true (grant 0 >= 75 && grant 0 <= 76);
  check bool "small request scaled" true (grant 1 >= 25 && grant 1 <= 26);
  check bool "tokens conserved" true (conserves_tokens entries grants)

let max_requests_keeps_small () =
  (* Pool 100 against {90, 80}: max-usage keeps 90; max-requests keeps 80
     only if that lets more requests through — here both keep exactly one,
     but different ones. *)
  let entries = [ entry 0 0 90; entry 1 0 80; entry 2 100 0 ] in
  let usage = redistribute_with Max_usage entries in
  let requests = redistribute_with Max_requests entries in
  let satisfied grants site = (List.find (fun g -> g.site = site) grants).wanted_satisfied in
  check bool "max-usage keeps the large" true (satisfied usage 0);
  check bool "max-requests keeps the small" true (satisfied requests 1);
  check bool "max-requests drops the large" false (satisfied requests 0)

let cluster_uses_configured_policy () =
  (* A proportional-policy cluster still conserves and enforces. *)
  let config =
    { Samya.Config.default with reallocation_policy = Samya.Reallocation.Proportional }
  in
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster = Samya.Cluster.create ~seed:9L ~config ~regions () in
  Samya.Cluster.init_entity cluster ~entity:"VM" ~maximum:2_000;
  let engine = Samya.Cluster.engine_of_region cluster regions.(0) in
  let granted = ref 0 in
  for i = 0 to 1_499 do
    Des.Engine.schedule_at engine
      ~time_ms:(float_of_int i *. 5.0)
      (fun () ->
        Samya.Cluster.submit cluster ~region:regions.(0)
          (Samya.Types.Acquire { entity = "VM"; amount = 1; deadline_ms = infinity })
          ~reply:(function Samya.Types.Granted -> incr granted | _ -> ()))
  done;
  Samya.Cluster.run_until cluster ~until_ms:120_000.0;
  check bool "served beyond the local share" true (!granted > 500);
  check bool "invariant" true
    (Samya.Cluster.check_invariant cluster ~entity:"VM" ~maximum:2_000 = Ok ())

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
    QCheck_alcotest.to_alcotest all_policies_conserve;
    QCheck_alcotest.to_alcotest max_requests_satisfies_at_least_as_many;
    Alcotest.test_case "policy: proportional scales" `Quick proportional_scales;
    Alcotest.test_case "policy: max-requests vs max-usage" `Quick max_requests_keeps_small;
    Alcotest.test_case "policy: cluster uses configured policy" `Quick
      cluster_uses_configured_policy;
    Alcotest.test_case "org: paths and ancestors" `Quick org_paths_and_ancestors;
    Alcotest.test_case "org: charges every level" `Quick org_charges_every_level;
    Alcotest.test_case "org: team limit binds with compensation" `Quick org_team_limit_binds;
    Alcotest.test_case "org: release returns every level" `Quick
      org_release_returns_every_level;
  ]
