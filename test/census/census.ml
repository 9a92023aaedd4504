(* The chaos census: the multi-key chaos run ({!Chaos.Soak.run} on
   {!Chaos.Soak.multi_key}, the body of the test property [chaos:
   per-entity conservation, batched protocol]) over seeds 1000 + 7919·i,
   i < N, in four configurations — both Avantan variants, one machine
   per entity (protocol_batch 1) and the batch channel (protocol_batch 8).
   One tab-separated line per run:

     variant  batch  seed  over-grants  parked  participating  live

   [over-grants] lists every key failing the quiescent Equation-1 audit
   ("ok" when none), [parked] the requests still queued, [participating]
   the (site:key) pairs still in a protocol instance ("-" when none) and
   [live] the auditor's live-check violations. Every column but [live] is
   the run's behaviour, so two builds that behave alike print the same
   lines once [live] is cut; [live] tracks the auditor itself. A
   [summary] line per configuration closes the output; its [unhealed]
   count (runs that ended with a fault still injected) should read 0.

   Usage: census.exe [--seeds N]   (default 400) *)

let seeds =
  match Sys.argv with
  | [| _ |] -> 400
  | [| _; "--seeds"; n |] -> int_of_string n
  | _ ->
      prerr_endline "usage: census.exe [--seeds N]";
      exit 2

let configs =
  [
    ("majority", Samya.Config.Majority, 1);
    ("majority", Samya.Config.Majority, 8);
    ("star", Samya.Config.Star, 1);
    ("star", Samya.Config.Star, 8);
  ]

let () =
  List.iter
    (fun (name, variant, protocol_batch) ->
      let failing = ref 0 and stuck = ref 0 and pairs = ref 0 in
      let parked_total = ref 0 and live_total = ref 0 and unhealed = ref 0 in
      for i = 0 to seeds - 1 do
        let seed = 1000 + (7919 * i) in
        let { Chaos.Soak.over_grants = over; parked; participating; live_violations = live; _ }
            as r =
          Chaos.Soak.run
            ~config:{ Chaos.Soak.multi_key_config with variant; protocol_batch }
            ~workload:Chaos.Soak.multi_key ~seed ()
        in
        if r.injected <> r.healed then incr unhealed;
        if over <> [] then incr failing;
        if participating <> [] then incr stuck;
        pairs := !pairs + List.length participating;
        parked_total := !parked_total + parked;
        live_total := !live_total + live;
        Printf.printf "%s\t%d\t%d\t%s\t%d\t%s\t%d\n" name protocol_batch seed
          (match over with
          | [] -> "ok"
          | _ -> String.concat ";" (List.map (fun (k, d) -> k ^ ": " ^ d) over))
          parked
          (match participating with
          | [] -> "-"
          | _ ->
              String.concat ","
                (List.map (fun (s, k) -> Printf.sprintf "%d:%s" s k) participating))
          live
      done;
      Printf.printf
        "summary\t%s\tbatch %d\tseeds %d\tover-grant seeds %d\tseeds still \
         participating %d\tparticipating pairs %d\tparked %d\tlive violations \
         %d\tunhealed %d\n%!"
        name protocol_batch seeds !failing !stuck !pairs !parked_total !live_total
        !unhealed)
    configs
