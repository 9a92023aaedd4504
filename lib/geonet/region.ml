type t =
  | Us_west1
  | Us_central1
  | Us_east1
  | Asia_east2
  | Europe_west2
  | Australia_southeast1
  | Southamerica_east1

let name = function
  | Us_west1 -> "us-west1"
  | Us_central1 -> "us-central1"
  | Us_east1 -> "us-east1"
  | Asia_east2 -> "asia-east2"
  | Europe_west2 -> "europe-west2"
  | Australia_southeast1 -> "australia-southeast1"
  | Southamerica_east1 -> "southamerica-east1"

let all =
  [ Us_west1; Us_central1; Us_east1; Asia_east2; Europe_west2;
    Australia_southeast1; Southamerica_east1 ]

let default_five =
  [ Us_west1; Asia_east2; Europe_west2; Australia_southeast1; Southamerica_east1 ]

let index = function
  | Us_west1 -> 0
  | Us_central1 -> 1
  | Us_east1 -> 2
  | Asia_east2 -> 3
  | Europe_west2 -> 4
  | Australia_southeast1 -> 5
  | Southamerica_east1 -> 6

(* Round-trip times in milliseconds, calibrated to public GCP inter-region
   ping measurements (gcping-style medians, rounded). Row/column order
   follows [index]. *)
let rtt_table =
  [| (*              usw1   usc1   use1   ase2   euw2   ause1  sae1 *)
     (* us-west1 *) [| 1.0;  35.0;  60.0; 118.0; 130.0; 140.0; 170.0 |];
     (* us-cent1 *) [| 35.0;  1.0;  30.0; 140.0; 100.0; 165.0; 145.0 |];
     (* us-east1 *) [| 60.0; 30.0;   1.0; 170.0;  80.0; 190.0; 120.0 |];
     (* asia-e2  *) [| 118.0; 140.0; 170.0;  1.0; 190.0; 120.0; 300.0 |];
     (* eu-west2 *) [| 130.0; 100.0;  80.0; 190.0;  1.0; 250.0; 190.0 |];
     (* aus-se1  *) [| 140.0; 165.0; 190.0; 120.0; 250.0;  1.0; 290.0 |];
     (* sa-east1 *) [| 170.0; 145.0; 120.0; 300.0; 190.0; 290.0;  1.0 |]
  |]

let rtt_ms a b = rtt_table.(index a).(index b)

let one_way_ms a b = rtt_ms a b /. 2.0

let client_site_rtt_ms = 1.0

(* The conservative lookahead of a sharded run: the smallest one-way
   latency between two *distinct* regions, over the full table — not just
   the regions a given experiment hosts, so the bound also covers clients
   homed in non-hosting regions. Computed, not hardcoded: recalibrating
   [rtt_table] keeps sharding safe automatically. *)
let min_cross_one_way_ms () =
  let n = Array.length rtt_table in
  let best = ref infinity in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then best := Float.min !best (rtt_table.(a).(b) /. 2.0)
    done
  done;
  !best

let nearest_hosted_lane ~node_lane ~regions r =
  (* Deterministic: scan hosted nodes in order, strictly-closer wins, so
     latency ties resolve to the lowest node index. *)
  let best_lane = ref 0 and best_rtt = ref infinity in
  Array.iteri
    (fun node hosted ->
      let d = rtt_ms r hosted in
      if d < !best_rtt then begin
        best_rtt := d;
        best_lane := node_lane.(node)
      end)
    regions;
  !best_lane

let lane_assignment regions =
  let n_regions = List.length all in
  let node_lane = Array.make (Array.length regions) (-1) in
  let region_lane = Array.make n_regions (-1) in
  let next = ref 0 in
  Array.iteri
    (fun node r ->
      let ri = index r in
      if region_lane.(ri) < 0 then begin
        region_lane.(ri) <- !next;
        incr next
      end;
      node_lane.(node) <- region_lane.(ri))
    regions;
  let lanes = !next in
  (* Regions hosting no site (foreign-region clients live there) ride the
     lane of the nearest hosted region: their only traffic is cross-region
     messaging to/from sites, which stays above the lookahead bound, and
     client-local legs (sub-lookahead) never cross lanes this way. *)
  List.iter
    (fun r ->
      let ri = index r in
      if region_lane.(ri) < 0 then
        region_lane.(ri) <- nearest_hosted_lane ~node_lane ~regions r)
    all;
  (node_lane, region_lane, lanes)

let of_string s =
  let rec find = function
    | [] -> None
    | r :: rest -> if String.equal (name r) s then Some r else find rest
  in
  find all
