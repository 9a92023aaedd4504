(* Chaos soak: K seeds per Avantan variant, each a full Nemesis run with
   crash-amnesia recovery, audited for token conservation, double-apply
   and decided-prefix violations. Any failing seed prints its violations
   plus the one-command repro line. *)

let n_seeds ~quick = if quick then 6 else 20
let soak_duration_ms ~quick = if quick then 45_000.0 else 120_000.0

let variant_label = function
  | Samya.Config.Majority -> "Samya w/ Av.[(n+1)/2]"
  | Samya.Config.Star -> "Samya w/ Av.[*]"

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let run _ctx ~quick fmt =
  let n_seeds = n_seeds ~quick in
  let duration_ms = soak_duration_ms ~quick in
  Format.fprintf fmt
    "@.== Chaos soak: %d seeds x 2 variants, %.0f s of faults each \
     (crash-amnesia, write-through durability) ==@."
    n_seeds (duration_ms /. 1_000.0);
  let runs =
    List.concat_map
      (fun variant -> List.init n_seeds (fun i -> (variant, i + 1)))
      [ Samya.Config.Majority; Samya.Config.Star ]
  in
  let reports =
    Pool.map
      (fun (variant, seed) ->
        Chaos.Soak.run
          ~config:{ Chaos.Soak.single_key_config with variant }
          ~workload:{ Chaos.Soak.single_key with duration_ms }
          ~seed ())
      runs
  in
  let by_variant variant =
    List.filter (fun (r : Chaos.Soak.report) -> r.config.variant = variant) reports
  in
  let rows =
    List.map
      (fun variant ->
        let rs = by_variant variant in
        let passed =
          List.length (List.filter Chaos.Soak.passed rs)
        in
        let faults =
          List.fold_left (fun acc (r : Chaos.Soak.report) -> acc + r.injected) 0 rs
        in
        let granted =
          List.fold_left (fun acc (r : Chaos.Soak.report) -> acc + r.granted) 0 rs
        in
        let recovery =
          List.concat_map
            (fun (r : Chaos.Soak.report) -> List.map snd r.recovery_probes)
            rs
        in
        let syncs =
          List.fold_left
            (fun acc (r : Chaos.Soak.report) -> acc + r.durable_syncs)
            0 rs
        in
        [
          variant_label variant;
          Printf.sprintf "%d/%d" passed (List.length rs);
          string_of_int faults;
          string_of_int granted;
          (let m = mean recovery in
           if Float.is_nan m then "-" else Printf.sprintf "%.0f ms" m);
          string_of_int syncs;
        ])
      [ Samya.Config.Majority; Samya.Config.Star ]
  in
  Report.table fmt ~title:"Chaos soak: survived seeds and recovery latency"
    ~header:
      [ "system"; "seeds OK"; "faults"; "granted"; "mean recovery"; "syncs" ]
    ~rows;
  let failures = List.filter (fun r -> not (Chaos.Soak.passed r)) reports in
  if failures = [] then
    Report.kv fmt
      [
        ( "auditor",
          Printf.sprintf
            "all %d runs conserve tokens, no double-apply, no divergent origin"
            (List.length reports) );
      ]
  else
    List.iter
      (fun (r : Chaos.Soak.report) ->
        Format.fprintf fmt "@.FAILED seed %d (%s):@." r.seed
          (variant_label r.config.variant);
        List.iter
          (fun v -> Format.fprintf fmt "  %a@." Chaos.Auditor.pp_violation v)
          r.violations;
        Format.fprintf fmt "  repro: %s@." (Chaos.Soak.repro_line r))
      failures
