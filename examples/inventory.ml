(* Flash-sale inventory (one of the paper's "other applications", §1).

   A retailer lists 8000 units of a hot SKU, sold from five regional
   storefronts. At minute two, a flash sale makes the US storefront's
   demand explode. Samya's per-site stock is just a partition of the
   global count: the prediction module sees the surge and Avantan pulls
   unsold stock from the quiet regions, so the US keeps selling without a
   per-order global transaction — and the total sold can never exceed the
   listing (Equation 1).

     dune exec examples/inventory.exe *)

let sku = "sku-ultrawidget"
let listed = 8_000

let () =
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions ~seed:11L ()
  in
  Samya.Cluster.init_entity cluster ~entity:sku ~maximum:listed;
  let sold = Array.make (Array.length regions) 0 in
  let missed = Array.make (Array.length regions) 0 in
  let rng = Des.Rng.create 11L in

  (* Background shopping everywhere: ~20 orders/s per region. Each order
     is issued on its storefront region's simulation lane. *)
  let order region_index at =
    let engine = Samya.Cluster.engine_of_region cluster regions.(region_index) in
    Des.Engine.schedule_at engine ~time_ms:at (fun () ->
        Samya.Cluster.submit cluster ~region:regions.(region_index)
          (Samya.Types.Acquire { entity = sku; amount = 1; deadline_ms = infinity })
          ~reply:(function
            | Samya.Types.Granted -> sold.(region_index) <- sold.(region_index) + 1
            | Samya.Types.Rejected | Samya.Types.Rejected_deadline | Samya.Types.Unavailable ->
                missed.(region_index) <- missed.(region_index) + 1
            | Samya.Types.Read_result _ -> ()))
  in
  let duration_ms = 5.0 *. 60_000.0 in
  for region_index = 0 to Array.length regions - 1 do
    let rec background at =
      if at < duration_ms then begin
        order region_index at;
        background (at +. Des.Rng.exponential rng ~rate:0.02 (* per ms *))
      end
    in
    background (Des.Rng.float rng 50.0)
  done;
  (* The flash sale: the US storefront jumps to ~400 orders/s for a minute. *)
  let rec surge at =
    if at < 180_000.0 then begin
      order 0 at;
      surge (at +. Des.Rng.exponential rng ~rate:0.4)
    end
  in
  surge 120_000.0;

  Samya.Cluster.run_until cluster ~until_ms:600_000.0;
  Format.printf "flash sale on %s (%d listed):@.@." sku listed;
  Array.iteri
    (fun i _ ->
      Format.printf "  %-22s sold %5d  missed %4d  stock left %4d@."
        (Geonet.Region.name regions.(i))
        sold.(i) missed.(i)
        (Samya.Site.tokens_left (Samya.Cluster.site cluster i) ~entity:sku))
    regions;
  let total_sold = Array.fold_left ( + ) 0 sold in
  Format.printf "@.total sold %d <= listed %d; redistributions executed: %d@." total_sold
    listed
    (Samya.Cluster.total_redistributions cluster);
  match Samya.Cluster.check_invariant cluster ~entity:sku ~maximum:listed with
  | Ok () -> Format.printf "inventory never oversold (Equation 1 verified).@."
  | Error e -> Format.printf "OVERSOLD: %s@." e
