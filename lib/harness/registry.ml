type experiment = {
  id : string;
  paper_artifact : string;
  description : string;
  run : Lab.context -> quick:bool -> Format.formatter -> unit;
}

(* The scenario experiments: data for the shared runner, one list for
   the registry rows and the trace path. *)
let scenarios = [ Exp_gateway.scenario; Exp_retrystorm.scenario; Exp_contention.scenario ]

let of_scenario (s : Scenario.t) =
  {
    id = s.id;
    paper_artifact = s.paper_artifact;
    description = s.description;
    run = (fun ctx ~quick fmt -> Scenario.run ctx ~quick fmt s);
  }

let all =
  [
    {
      id = "fig3a";
      paper_artifact = "Figure 3a";
      description = "VM demand data: periodic daily/weekly pattern";
      run = (fun ctx ~quick:_ fmt -> Exp_prediction.run_fig3a ctx fmt);
    };
    {
      id = "table2a";
      paper_artifact = "Table 2a";
      description = "MAE of random walk / ARIMA / LSTM demand prediction";
      run = (fun ctx ~quick:_ fmt -> Exp_prediction.run_table2a ctx fmt);
    };
  ]
  @ List.map of_scenario
      [
        Exp_headline.scenario;
        {
          Exp_headline.scenario with
          id = "fig3b";
          paper_artifact = "Figure 3b (with Table 2b)";
          description = "alias of table2b: both come from the same runs";
        };
        Exp_failures.crash;
        Exp_failures.partition;
        Exp_ablations.constraint_ablation;
        Exp_ablations.prediction_ablation;
      ]
  @ [
    {
      id = "fig3g";
      paper_artifact = "Figure 3g";
      description = "scalability from 5 to 20 sites";
      run = (fun ctx ~quick fmt -> Exp_scalability.run ctx ~quick fmt);
    };
    {
      id = "fig3h";
      paper_artifact = "Figure 3h";
      description = "read-only transaction ratio sweep vs MultiPaxSys";
      run = (fun ctx ~quick fmt -> Exp_readmix.run ctx ~quick fmt);
    };
    {
      id = "ext1";
      paper_artifact = "§5.9(i)";
      description = "varying the maximum limit M_e";
      run = (fun ctx ~quick fmt -> Exp_extended.run_max_limit ctx ~quick fmt);
    };
    {
      id = "ext2";
      paper_artifact = "§5.9(ii)";
      description = "varying the request arrival interval";
      run = (fun ctx ~quick fmt -> Exp_extended.run_arrival_rate ctx ~quick fmt);
    };
    {
      id = "chaos";
      paper_artifact = "robustness ext.";
      description = "multi-seed nemesis soak with crash-amnesia recovery + auditor";
      run = (fun ctx ~quick fmt -> Exp_chaos.run ctx ~quick fmt);
    };
  ]
  @ List.map of_scenario scenarios

let find id = List.find_opt (fun e -> String.equal e.id id) all

let ids () = List.map (fun e -> e.id) all

let unknown_message id =
  Printf.sprintf "unknown experiment %S; known: %s" id (String.concat ", " (ids ()))

let validate requested =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | id :: rest -> (
        match find id with
        | Some experiment -> collect (experiment :: acc) rest
        | None -> Error (unknown_message id))
  in
  collect [] requested

let run_by_id ctx ~quick fmt id =
  match find id with
  | Some experiment ->
      experiment.run ctx ~quick fmt;
      Ok ()
  | None -> Error (unknown_message id)

type rendered = { experiment : experiment; output : string; seconds : float }

let run_many ?(time = fun () -> 0.0) ctx ~quick experiments =
  Pool.map
    (fun experiment ->
      let buffer = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buffer in
      let t0 = time () in
      experiment.run ctx ~quick fmt;
      Format.pp_print_flush fmt ();
      { experiment; output = Buffer.contents buffer; seconds = time () -. t0 })
    experiments
