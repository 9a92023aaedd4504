(* Airline ticket booking — the classic escrow example ([2], [9], [19])
   the paper builds on.

   A flight has exactly 420 seats, sold simultaneously by agencies on
   five continents. Tokens are seats: most bookings commit locally at an
   agency's site; Avantan shifts unsold seats toward the continents that
   are selling; the global constraint guarantees the flight is never
   oversold even though no per-booking global coordination happens.
   Cancellations return seats, and late bookings pick them up.

     dune exec examples/airline.exe *)

let flight = "UC-418"
let seats = 420

let () =
  let regions = Array.of_list Geonet.Region.default_five in
  let cluster =
    Samya.Cluster.create ~config:Samya.Config.default ~regions ~seed:31L ()
  in
  Samya.Cluster.init_entity cluster ~entity:flight ~maximum:seats;
  let rng = Des.Rng.create 31L in
  let booked = ref 0 and turned_away = ref 0 and cancelled = ref 0 in

  (* Bookings arrive worldwide; 6% of them cancel later. Demand (700+
     attempts) deliberately exceeds the cabin. A booking is issued, and
     its cancellation scheduled, on its agency region's simulation lane;
     its randomness is drawn up front. *)
  let book region at ~cancel_after =
    let engine = Samya.Cluster.engine_of_region cluster region in
    Des.Engine.schedule_at engine ~time_ms:at (fun () ->
        Samya.Cluster.submit cluster ~region
          (Samya.Types.Acquire { entity = flight; amount = 1; deadline_ms = infinity })
          ~reply:(function
            | Samya.Types.Granted -> (
                incr booked;
                match cancel_after with
                | None -> ()
                | Some delay_ms ->
                    Des.Engine.schedule engine ~delay_ms (fun () ->
                        Samya.Cluster.submit cluster ~region
                          (Samya.Types.Release
                             { entity = flight; amount = 1; deadline_ms = infinity })
                          ~reply:(function
                            | Samya.Types.Granted ->
                                decr booked;
                                incr cancelled
                            | _ -> ())))
            | Samya.Types.Rejected | Samya.Types.Rejected_deadline | Samya.Types.Unavailable ->
                incr turned_away
            | Samya.Types.Read_result _ -> ()))
  in
  for _ = 1 to 700 do
    let region = Des.Rng.pick rng regions in
    let at = Des.Rng.float rng 120_000.0 in
    let cancel_after =
      if Des.Rng.bool rng 0.06 then Some (Des.Rng.float rng 60_000.0) else None
    in
    book region at ~cancel_after
  done;
  Samya.Cluster.run_until cluster ~until_ms:600_000.0;

  Format.printf "flight %s, %d seats, 700 booking attempts across 5 continents:@.@."
    flight seats;
  Format.printf "  booked (net)  %4d@." !booked;
  Format.printf "  cancellations %4d (seats resold to later bookings)@." !cancelled;
  Format.printf "  turned away   %4d@." !turned_away;
  Format.printf "  redistributions: %d@." (Samya.Cluster.total_redistributions cluster);
  (match Samya.Cluster.check_invariant cluster ~entity:flight ~maximum:seats with
  | Ok () -> Format.printf "@.never oversold: net bookings <= %d at every instant.@." seats
  | Error e -> Format.printf "@.OVERSOLD: %s@." e);
  assert (!booked <= seats)
