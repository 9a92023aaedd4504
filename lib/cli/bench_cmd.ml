(* The benchmark runner: regenerates every table and figure of the paper's
   evaluation plus bechamel micro-benchmarks of the core data-path
   operations. Shared by `bench/main.exe` (where it is the whole program)
   and `samya_cli bench`. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (bechamel) *)

let micro_benchmarks () =
  let open Bechamel in
  let rng = Des.Rng.create 99L in
  let entries =
    List.init 16 (fun site ->
        {
          Samya.Reallocation.site;
          tokens_left = Des.Rng.int rng 2_000;
          tokens_wanted = Des.Rng.int rng 500;
        })
  in
  let realloc =
    Test.make ~name:"reallocation.redistribute(16 sites)"
      (Staged.stage (fun () -> ignore (Samya.Reallocation.redistribute entries)))
  in
  let heap =
    Test.make ~name:"pheap.push+pop(1k)"
      (Staged.stage (fun () ->
           let h = Des.Pheap.create () in
           for i = 0 to 999 do
             Des.Pheap.push h ~priority:(float_of_int ((i * 7) mod 997)) i
           done;
           while Des.Pheap.pop h <> None do
             ()
           done))
  in
  (* The batched drain the sharded engine windows run on: same workload as
     push+pop, emptied in one allocation-free sweep. *)
  let heap_drain =
    Test.make ~name:"pheap.push+drain_to(1k)"
      (Staged.stage (fun () ->
           let h = Des.Pheap.create () in
           for i = 0 to 999 do
             Des.Pheap.push h ~priority:(float_of_int ((i * 7) mod 997)) i
           done;
           Des.Pheap.drain_to h ~limit:1_000.0 (fun _ _ -> ())))
  in
  let a = Ml.Matrix.random (Des.Rng.create 3L) 64 64 ~scale:1.0 in
  let b = Ml.Matrix.random (Des.Rng.create 4L) 64 64 ~scale:1.0 in
  let matmul =
    Test.make ~name:"matrix.matmul(64x64)"
      (Staged.stage (fun () -> ignore (Ml.Matrix.matmul a b)))
  in
  let series = Array.init 400 (fun i -> 50.0 +. (40.0 *. sin (float_of_int i /. 9.0))) in
  let model =
    Ml.Lstm.train
      ~config:{ Ml.Lstm.default_config with epochs = 2; hidden = 8; window = 12 }
      series
  in
  let lstm =
    Test.make ~name:"lstm.predict_next(w=12,h=8)"
      (Staged.stage (fun () -> ignore (Ml.Lstm.predict_next model series)))
  in
  (* A site's entity arena at gateway-fleet scale: a million keys in a
     sharded directory, appended in bulk as a cluster registers them, and
     a Zipfian-shaped access mix of hot head and cold tail. Lookups and
     updates must stay flat in the fleet size (one hash into a directory
     shard, then the arena slot) and the by-eid ledger scan every audit
     pays must stay linear. The ~57 MB of directory and arena (names,
     tables, one share per key) is allocated per test, outside the timed
     part, and compacted away afterwards (make_with_resource): kept resident
     it inflates every later allocating benchmark's numbers, since each
     minor collection then drags a major-heap slice over the arena. *)
  let fleet = 1_000_000 in
  let fleet_name = Harness.Exp_gateway.key_name in
  let allocate_arena () =
    let directory = Samya.Entity_map.Directory.create ~shards:256 ~capacity:fleet () in
    let map : unit Samya.Entity_map.t =
      Samya.Entity_map.create ~directory ~capacity:fleet ()
    in
    for r = 0 to fleet - 1 do
      ignore (Samya.Entity_map.Directory.add directory (fleet_name r))
    done;
    Samya.Entity_map.append map ~first_eid:0 ~count:fleet;
    for eid = 0 to fleet - 1 do
      Samya.Entity_map.set_share map eid 10
    done;
    (* 512 hot-head keys and 512 spread across the cold tail. *)
    let mix =
      Array.init 1_024 (fun i ->
          fleet_name (if i < 512 then i else (i - 512) * (fleet / 512)))
    in
    (map, mix)
  in
  let free_arena _ = Gc.compact () in
  let entity_find =
    Test.make_with_resource ~name:"entity_map.find(1M keys,hot/cold mix)"
      Test.uniq ~allocate:allocate_arena ~free:free_arena
      (Staged.stage (fun (arena, mix) ->
           Array.iter (fun key -> ignore (Samya.Entity_map.find arena key)) mix))
  in
  let entity_update =
    Test.make_with_resource ~name:"entity_map.update(1M keys,hot/cold mix)"
      Test.uniq ~allocate:allocate_arena ~free:free_arena
      (Staged.stage (fun (arena, mix) ->
           Array.iter
             (fun key ->
               match Samya.Entity_map.find arena key with
               | Some core ->
                   core.Samya.Entity_map.tokens_left <-
                     core.Samya.Entity_map.tokens_left lxor 1
               | None -> assert false)
             mix))
  in
  let entity_iterate =
    Test.make_with_resource ~name:"entity_map.iterate(1M keys)" Test.uniq
      ~allocate:allocate_arena ~free:free_arena
      (Staged.stage (fun (arena, _mix) ->
           let alive = ref 0 in
           for eid = 0 to Samya.Entity_map.length arena - 1 do
             if Samya.Entity_map.tokens_left arena eid > 0 then incr alive
           done;
           ignore !alive))
  in
  (* Instrumentation-off drains: the observability layer must not put
     allocation or measurable time on the DES hot path when no sink is
     subscribed (the PR-1 Pheap optimisation budget, ~160 µs/run). *)
  let drain ~label =
    let engine = Des.Engine.create () in
    fun () ->
      for i = 0 to 999 do
        let delay_ms = float_of_int ((i * 7) mod 997) in
        match label with
        | None -> ignore (Des.Engine.timer engine ~delay_ms (fun () -> ()))
        | Some label ->
            ignore (Des.Engine.timer ~label engine ~delay_ms (fun () -> ()))
      done;
      Des.Engine.run_for engine 1_000.0
  in
  let engine_plain =
    Test.make ~name:"engine.timer-drain(1k,untraced)"
      (Staged.stage (drain ~label:None))
  in
  let engine_labelled =
    Test.make ~name:"engine.timer-drain(1k,labelled,no sink)"
      (Staged.stage (drain ~label:(Some "bench.timer")))
  in
  let grouped =
    Test.make_grouped ~name:"core"
      [
        realloc;
        heap;
        heap_drain;
        matmul;
        lstm;
        entity_find;
        entity_update;
        entity_iterate;
        engine_plain;
        engine_labelled;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances =
    Toolkit.Instance.[ monotonic_clock; minor_allocated ]
  in
  let raw = Benchmark.all cfg instances grouped in
  let time_by = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let alloc_by = Analyze.all ols Toolkit.Instance.minor_allocated raw in
  Format.printf "@.== micro: bechamel benchmarks of core operations ==@.";
  let estimate table name =
    match Hashtbl.find_opt table name with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ v ] -> Some v
        | Some _ | None -> None)
    | None -> None
  in
  let measured = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ time_ns ] ->
          let alloc = estimate alloc_by name in
          measured := (name, time_ns, alloc) :: !measured;
          Format.printf "  %-42s %12.1f ns/run%s@." name time_ns
            (match alloc with
            | Some words -> Printf.sprintf "  %10.1f minor w/run" words
            | None -> "")
      | Some _ | None -> ())
    time_by;
  Format.printf "@.";
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !measured

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_*.json) *)

let json_escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let write_json ~path ~quick ~jobs ~engine_jobs ~experiments ~micro ~total_wall_s =
  let out = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string out) fmt in
  add "{\n";
  add "  \"schema\": \"samya-bench/1\",\n";
  add "  \"generated_at_unix\": %.0f,\n" (Unix.gettimeofday ());
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"engine_jobs\": %d,\n" engine_jobs;
  add "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"seed\": %Ld,\n" Harness.Exp_common.seed;
  add "  \"experiments\": [";
  List.iteri
    (fun i (id, seconds) ->
      add "%s\n    {\"id\": \"%s\", \"wall_s\": %.3f}"
        (if i = 0 then "" else ",")
        (json_escape id) seconds)
    experiments;
  add "%s],\n" (if experiments = [] then "" else "\n  ");
  add "  \"micro\": [";
  List.iteri
    (fun i (name, ns, alloc) ->
      add "%s\n    {\"name\": \"%s\", \"ns_per_run\": %.1f%s}"
        (if i = 0 then "" else ",")
        (json_escape name) ns
        (match alloc with
        | Some words -> Printf.sprintf ", \"minor_words_per_run\": %.1f" words
        | None -> ""))
    micro;
  add "%s],\n" (if micro = [] then "" else "\n  ");
  add "  \"total_wall_s\": %.3f\n" total_wall_s;
  add "}\n";
  Args.write_file ~path (Buffer.contents out)

(* The same results through the observability exporter: wall times and
   micro measurements as one metrics registry. *)
let write_metrics ~path ~quick ~jobs ~engine_jobs ~experiments ~micro ~total_wall_s =
  let m = Obs.Metrics.create (Obs.Lane_log.single (fun () -> 0.0)) in
  let wall_h = Obs.Metrics.histogram m "bench.wall_s" in
  List.iter
    (fun (id, seconds) ->
      Obs.Metrics.set (Obs.Metrics.gauge m ("bench.wall_s/" ^ id)) seconds;
      Obs.Metrics.observe wall_h seconds)
    experiments;
  List.iter
    (fun (name, ns, alloc) ->
      Obs.Metrics.set (Obs.Metrics.gauge m ("micro.ns_per_run/" ^ name)) ns;
      match alloc with
      | Some words ->
          Obs.Metrics.set
            (Obs.Metrics.gauge m ("micro.minor_words_per_run/" ^ name))
            words
      | None -> ())
    micro;
  Obs.Metrics.set (Obs.Metrics.gauge m "bench.total_wall_s") total_wall_s;
  let buf = Buffer.create 4096 in
  Obs.Export.metrics_json buf
    ~meta:
      [
        ("tool", "bench");
        ("quick", string_of_bool quick);
        ("jobs", string_of_int jobs);
        ("engine_jobs", string_of_int engine_jobs);
        ("host_cores", string_of_int (Domain.recommended_domain_count ()));
        ("seed", Int64.to_string Harness.Exp_common.seed);
      ]
    [ ("bench", m) ];
  Args.write_file ~path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)

let run quick jobs engine_jobs json metrics_out ids =
  let run_micro = ids = [] || List.mem "micro" ids in
  let experiment_ids =
    if ids = [] then Harness.Registry.ids () |> List.filter (fun id -> id <> "fig3b")
    else List.filter (fun id -> id <> "micro") ids
  in
  match Harness.Registry.validate experiment_ids with
  | Error message ->
      Format.eprintf "error: %s@." message;
      2
  | Ok experiments -> (
      (* Fail before the sweep, not after it, if an output target is
         unwritable. *)
      let probe = function
        | None -> Ok ()
        | Some path -> (
            match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
            | channel ->
                close_out channel;
                Ok ()
            | exception Sys_error reason -> Error reason)
      in
      match (probe json, probe metrics_out) with
      | Error reason, _ | _, Error reason ->
          Format.eprintf "error: cannot write output file: %s@." reason;
          2
      | Ok (), Ok () ->
          Harness.Pool.set_jobs jobs;
          Harness.Pool.set_engine_jobs engine_jobs;
          (* Runner metadata goes to stderr: stdout is byte-identical at
             any --jobs or --engine-jobs level, so two runs can be diffed
             directly. *)
          Format.eprintf "jobs: %d, engine-jobs: %d@." jobs engine_jobs;
          Format.printf
            "Samya reproduction benchmarks (%s durations; seed fixed, fully \
             deterministic)@."
            (if quick then "quick" else "paper-scale");
          let started = Unix.gettimeofday () in
          let ctx = Harness.Lab.create () in
          let rendered =
            Harness.Registry.run_many ~time:Unix.gettimeofday ctx ~quick experiments
          in
          List.iter
            (fun (r : Harness.Registry.rendered) -> print_string r.output)
            rendered;
          let micro = if run_micro then micro_benchmarks () else [] in
          let total_wall_s = Unix.gettimeofday () -. started in
          let timings =
            List.map
              (fun (r : Harness.Registry.rendered) ->
                (r.experiment.Harness.Registry.id, r.seconds))
              rendered
          in
          (match json with
          | Some path ->
              write_json ~path ~quick ~jobs ~engine_jobs ~experiments:timings
                ~micro ~total_wall_s;
              Format.eprintf "wrote %s@." path
          | None -> ());
          (match metrics_out with
          | Some path ->
              write_metrics ~path ~quick ~jobs ~engine_jobs ~experiments:timings
                ~micro ~total_wall_s;
              Format.eprintf "wrote %s@." path
          | None -> ());
          Format.printf "@.done.@.";
          0)

let cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiment ids to run (see `samya_cli list`), plus the \
             pseudo-id $(b,micro) for the bechamel benchmarks. Default: \
             every experiment except fig3b, then micro.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write a machine-readable BENCH_*.json results file.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures and run the micro \
          benchmarks.")
    Term.(
      const run $ Args.quick $ Args.jobs $ Args.engine_jobs $ json
      $ Args.metrics_out $ ids)
