(* A gateway fleet's rate-limiter registry (the multi-entity use case).

   One Samya deployment holds the per-customer quotas of an API-gateway
   fleet: two thousand keys bulk-registered cold in the compact entity
   arena, Zipfian traffic heating the popular head into full per-entity
   protocol machines while the cold tail is served straight from the
   per-site ledgers. Gateways acquire a token per in-flight call and
   release it when the rate-limit window expires — all locally, with the
   site-level batched Avantan[*] machine piggybacking many keys'
   reallocations onto each WAN round as quota follows the traffic.

     dune exec examples/rate_limiter.exe *)

let keys = 2_000
let key r = Printf.sprintf "customer-%04d" r
let hold_ms = 500.0 (* the rate-limit window: how long a call holds its token *)
let rate_per_s = 300.0 (* offered calls across the whole fleet *)
let duration_ms = 2.0 *. 60_000.0

let () =
  let regions = Array.of_list Geonet.Region.default_five in
  let n_sites = Array.length regions in
  let zipf = Trace.Zipf.create keys in
  (* Little's-law quota per key: expected in-flight calls of rank [r]
     with 5x headroom, floored at one token per site. *)
  let quota r =
    let expected =
      rate_per_s *. Trace.Zipf.probability zipf r *. (hold_ms /. 1000.0)
    in
    max n_sites (int_of_float (ceil (5.0 *. expected)))
  in
  let config =
    {
      Samya.Config.default with
      variant = Samya.Config.Star;
      prediction_enabled = false;
      (* One machine per site, up to 32 keys per Avantan instance; 16-way
         sharded entity maps keep the 2k-key registry cheap to touch. *)
      protocol_batch = 32;
      entity_shards = 16;
      entity_capacity = keys;
    }
  in
  let cluster = Samya.Cluster.create ~config ~regions ~seed:23L () in
  Samya.Cluster.register_entities cluster
    (List.init keys (fun r -> (key r, quota r)));
  let rng = Des.Rng.create 23L in
  let admitted = ref 0 and throttled = ref 0 in
  let per_key_admitted = Hashtbl.create 256 in
  let bump table k =
    Hashtbl.replace table k (1 + Option.value (Hashtbl.find_opt table k) ~default:0)
  in

  (* Open-loop Zipfian arrivals: each call draws its customer from the
     popularity curve and lands on the customer's home gateway 80% of the
     time (a geo-pinned customer base), anywhere otherwise. A granted
     call returns its token when the window expires. Calls and returns
     run on the gateway region's simulation lane. *)
  let call at rank gateway =
    let entity = key rank in
    let engine = Samya.Cluster.engine_of_region cluster regions.(gateway) in
    Des.Engine.schedule_at engine ~time_ms:at (fun () ->
        Samya.Cluster.submit cluster ~region:regions.(gateway)
          (Samya.Types.Acquire { entity; amount = 1; deadline_ms = infinity })
          ~reply:(function
            | Samya.Types.Granted ->
                incr admitted;
                bump per_key_admitted entity;
                Des.Engine.schedule engine ~delay_ms:hold_ms (fun () ->
                    Samya.Cluster.submit cluster ~region:regions.(gateway)
                      (Samya.Types.Release { entity; amount = 1; deadline_ms = infinity })
                      ~reply:(fun _ -> ()))
            | Samya.Types.Rejected | Samya.Types.Rejected_deadline | Samya.Types.Unavailable ->
                incr throttled
            | Samya.Types.Read_result _ -> ()))
  in
  let rec arrivals at =
    if at < duration_ms then begin
      let rank = Trace.Zipf.sample zipf rng in
      let home = rank mod n_sites in
      let gateway =
        if Des.Rng.float rng 1.0 < 0.8 then home else Des.Rng.int rng n_sites
      in
      call at rank gateway;
      arrivals (at +. Des.Rng.exponential rng ~rate:(rate_per_s /. 1000.0))
    end
  in
  arrivals (Des.Rng.float rng 10.0);
  (* Run past the end so the last windows expire and quota comes home. *)
  Samya.Cluster.run_until cluster ~until_ms:(duration_ms +. 60_000.0);

  Format.printf "gateway fleet rate limiter (%d keys, 2 simulated minutes):@.@."
    keys;
  Format.printf "  admitted %d, throttled %d (%.2f%%)@." !admitted !throttled
    (100.0 *. float_of_int !throttled /. float_of_int (max 1 (!admitted + !throttled)));
  let hot = Samya.Cluster.hot_entities cluster in
  Format.printf "  hot keys: %d of %d registered (summed over %d sites) — the cold tail never built protocol state@."
    hot
    (Samya.Cluster.entity_count cluster)
    n_sites;
  (* The head of the popularity curve, where the traffic went. *)
  let top =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_key_admitted []
    |> List.sort (fun (ka, va) (kb, vb) ->
           let c = Int.compare vb va in
           if c <> 0 then c else String.compare ka kb)
    |> List.filteri (fun i _ -> i < 5)
  in
  Format.printf "@.  hottest customers:@.";
  List.iter
    (fun (k, calls) -> Format.printf "    %-14s %5d calls admitted@." k calls)
    top;
  (* Every key's tokens are conserved against its own quota — hot head
     and cold tail alike. *)
  let violated = ref 0 in
  for r = 0 to keys - 1 do
    match Samya.Cluster.check_invariant cluster ~entity:(key r) ~maximum:(quota r) with
    | Ok () -> ()
    | Error e ->
        incr violated;
        if !violated <= 3 then Format.printf "  %s QUOTA VIOLATED: %s@." (key r) e
  done;
  if !violated = 0 then
    Format.printf "@.  token conservation: all %d keys audited OK@." keys
  else Format.printf "@.  token conservation: %d keys VIOLATED@." !violated;
  let stats = Samya.Cluster.aggregate_site_stats cluster in
  Format.printf
    "@.quota rebalancing: %d reactive triggers -> %d decided (batched, piggybacked)@."
    stats.Samya.Site.reactive_triggers
    (Samya.Cluster.total_redistributions cluster)
