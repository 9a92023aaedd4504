(* The benchmark's three workloads, rebuilt from public library calls so
   that the seed comes from the command line. Each one mirrors a registry
   scenario (gateway, contention, retrystorm) but is driven here directly:
   the registry experiments fix their seed and print tables. *)

module Driver = Harness.Driver

type inputs = {
  requests : Trace.Workload.request array;
  keys : int;  (** keys the conservation audit covers: ranks [0, keys) *)
  key : int -> string;
  quota : int -> int;
}

type t = {
  name : string;
  sizes : (string * string) list;
      (** stamped on every result so two result files can be checked as
          comparable before they are compared *)
  generate : seed:int64 -> inputs;
  config : Samya.Config.t;
  register : Samya.Cluster.t -> inputs -> unit;
  spec : seed:int64 -> Harness.Systems.facade -> inputs -> Driver.spec;
      (** the driver spec without the observability fields *)
  sketch_k : int;  (** hot-key sketch width when the obs stack is armed *)
}

let n_sites = 5

let regions () = Harness.Exp_common.client_regions ()

let base_config () =
  {
    (Harness.Exp_common.samya_config Samya.Config.Majority) with
    Samya.Config.prediction_enabled = false;
    redistribution_cooldown_ms = 500.0;
  }

let single_entity ~entity ~quota requests =
  { requests; keys = 1; key = (fun _ -> entity); quota = (fun _ -> quota) }

let register_single cluster inputs =
  Samya.Cluster.init_entity cluster ~entity:(inputs.key 0) ~maximum:(inputs.quota 0)

(* fleet: the gateway scenario at 10^6 keys, a quarter of its offered
   rate and a 2 s horizon. The hot keys' queueing tail grows with the
   horizon and turns chaotic past ~3 s (a run's p99 then swings 30-40%
   from seed to seed); at 2 s it repeats within ~5%. *)
module Fleet = struct
  let hold_ms = 1_000.0
  let batch = 256
  let shards = 256
  let read_ratio = 0.05
  let key_name = Harness.Exp_gateway.key_name

  (* Little's-law quota with the gateway's 5x headroom and per-site floor. *)
  let quota ~rate_per_s zipf r =
    let expected =
      rate_per_s *. Trace.Zipf.probability zipf r *. (1.0 -. read_ratio)
      *. (hold_ms /. 1000.0)
    in
    max (4 * n_sites) (int_of_float (ceil (5.0 *. expected)))

  let generate ~keys ~rate_per_s ~duration_ms ~seed =
    let zipf = Trace.Zipf.create keys in
    let quotas = Array.init keys (quota ~rate_per_s zipf) in
    let requests =
      Trace.Workload.gateway ~rng:(Des.Rng.stream seed 1009) ~zipf ~key_name
        ~key_home:(fun r -> r mod n_sites)
        ~n_clients:n_sites ~rate_per_s ~duration_ms ~read_ratio ()
    in
    { requests; keys; key = key_name; quota = (fun r -> quotas.(r)) }

  let config ~keys =
    {
      (base_config ()) with
      Samya.Config.local_processing_ms = 0.01;
      protocol_batch = batch;
      entity_shards = shards;
      entity_capacity = keys;
    }

  let register cluster inputs =
    Samya.Cluster.register_entities cluster
      (List.init inputs.keys (fun r -> (inputs.key r, inputs.quota r)))

  let spec ~duration_ms ~seed:_ _system inputs =
    {
      (Driver.default_spec ~client_regions:(regions ()) ~requests:inputs.requests
         ~duration_ms)
      with
      drain_ms = 10_000.0;
      window_ms = 1_000.0;
      grant_driven_release_ms = Some hold_ms;
      track_entities = true;
    }

  let workload ~smoke =
    let keys, rate_per_s, duration_ms =
      if smoke then (10_000, 2_500.0, 2_000.0) else (1_000_000, 25_000.0, 2_000.0)
    in
    {
      name = "fleet";
      sizes =
        [
          ("keys", string_of_int keys);
          ("rate_per_s", Printf.sprintf "%.0f" rate_per_s);
          ("virtual_s", Printf.sprintf "%.0f" (duration_ms /. 1000.0));
          ("protocol_batch", string_of_int batch);
        ];
      generate = generate ~keys ~rate_per_s ~duration_ms;
      config = config ~keys;
      register;
      spec = spec ~duration_ms;
      sketch_k = 16;
    }
end

(* hotspot: the contention scenario's adaptive arm on one key. The skew
   ramp repeats [cycles] times in virtual time; its rates define the
   regime and stay as the scenario has them. *)
module Hotspot = struct
  let entity = "hotkey"
  let home = 0
  let quota = 2_000
  let hold_ms = 1_000.0

  (* (length ms, rate, home affinity): cold, skewed, pressure *)
  let ramp = [ (15_000.0, 100.0, 0.2); (25_000.0, 600.0, 0.9); (30_000.0, 1_800.0, 0.4) ]

  let cycle_ms = List.fold_left (fun acc (len, _, _) -> acc +. len) 0.0 ramp

  let phases ~cycles =
    let t = ref 0.0 in
    List.concat
      (List.init cycles (fun _ ->
           List.map
             (fun (len, rate_per_s, home_affinity) ->
               t := !t +. len;
               { Trace.Workload.until_ms = !t; rate_per_s; home_affinity })
             ramp))

  let generate ~cycles ~seed =
    single_entity ~entity ~quota
      (Trace.Workload.skew_ramp ~rng:(Des.Rng.stream seed 1019) ~entity ~home
         ~n_clients:n_sites ~phases:(phases ~cycles) ())

  let config =
    {
      (base_config ()) with
      Samya.Config.local_processing_ms = 0.2;
      controller =
        {
          Samya.Config.Controller.enabled = true;
          policy = Samya.Config.Controller.Adaptive;
          window_ms = 500.0;
          escalate_contention = 0.1;
          deescalate_margin = 0.5;
          borrow_fail_escalate = 0.3;
          p99_target_ms = 250.0;
          dwell_ms = 1_000.0;
          cooldown_ms = 500.0;
          borrow_quantum = 150;
          borrow_patience_ms = 500.0;
        };
    }

  let spec ~cycles ~seed:_ _system inputs =
    let duration_ms = float_of_int cycles *. cycle_ms in
    {
      (Driver.default_spec ~client_regions:(regions ()) ~requests:inputs.requests
         ~duration_ms)
      with
      drain_ms = 10_000.0;
      window_ms = 1_000.0;
      grant_driven_release_ms = Some hold_ms;
      phases =
        Array.of_list
          (List.filter_map
             (fun p ->
               let b = p.Trace.Workload.until_ms in
               if b < duration_ms then Some b else None)
             (phases ~cycles));
    }

  let workload ~smoke =
    let cycles = if smoke then 1 else 3 in
    {
      name = "hotspot";
      sizes =
        [
          ("keys", "1");
          ("quota", string_of_int quota);
          ("rates_per_s", "100/600/1800");
          ("virtual_s", Printf.sprintf "%.0f" (float_of_int cycles *. cycle_ms /. 1000.0));
        ];
      generate = generate ~cycles;
      config;
      register = register_single;
      spec = spec ~cycles;
      sketch_k = 8;
    }
end

(* storm: the retrystorm scenario's backoff+admission arm with
   crash-amnesia on, so every grant pays a durable write. The flash sale
   and its partition repeat [cycles] times. *)
module Storm = struct
  let entity = "sale"
  let home = 0
  let quota = 3_000
  let hold_ms = 1_000.0
  let timeout_ms = 1_000.0
  let cycle_ms = 60_000.0
  let base_rate_per_s = 600.0
  let spike_rate_per_s = 2_000.0
  let spike_ms = (20_000.0, 25_000.0)
  let partition_ms = (19_800.0, 27_000.0)

  let generate ~cycles ~seed =
    let spike_start_ms, spike_end_ms = spike_ms in
    single_entity ~entity ~quota
      (Array.concat
         (List.init cycles (fun i ->
              let offset = float_of_int i *. cycle_ms in
              Trace.Workload.flash_sale
                ~rng:(Des.Rng.stream seed (1013 + i))
                ~entity ~home ~n_clients:n_sites ~base_rate_per_s ~spike_rate_per_s
                ~spike_start_ms ~spike_end_ms ~duration_ms:cycle_ms ~home_affinity:0.9 ()
              |> Array.map (fun r ->
                     { r with Trace.Workload.time_ms = r.Trace.Workload.time_ms +. offset }))))

  let config =
    {
      (base_config ()) with
      Samya.Config.local_processing_ms = 0.5;
      deadline_budget_ms = timeout_ms;
      admission = { Samya.Config.Admission.target_ms = 50.0; interval_ms = 100.0 };
      breaker = { Samya.Config.Breaker.threshold = 2; probe_ms = 2_000.0 };
      amnesia_on_crash = true;
    }

  let partitions ~cycles (system : Harness.Systems.facade) =
    let at_ms, heal_ms = partition_ms in
    List.concat
      (List.init cycles (fun i ->
           let offset = float_of_int i *. cycle_ms in
           let fault =
             Chaos.Nemesis.spike_partition ~site:home ~n_sites ~at_ms ~heal_ms
               ~duration_ms:cycle_ms
           in
           List.concat_map
             (fun { Chaos.Nemesis.kind; at_ms; heal_ms } ->
               match kind with
               | Chaos.Nemesis.Partition { groups } ->
                   [
                     {
                       Driver.at_ms = at_ms +. offset;
                       action = (fun () -> system.Harness.Systems.partition groups);
                     };
                     {
                       Driver.at_ms = heal_ms +. offset;
                       action = (fun () -> system.Harness.Systems.heal ());
                     };
                   ]
               | _ -> [])
             fault.Chaos.Nemesis.faults))

  let spec ~cycles ~seed system inputs =
    {
      (Driver.default_spec ~client_regions:(regions ()) ~requests:inputs.requests
         ~duration_ms:(float_of_int cycles *. cycle_ms))
      with
      drain_ms = 10_000.0;
      window_ms = 1_000.0;
      events = partitions ~cycles system;
      client_timeout_ms = timeout_ms;
      grant_driven_release_ms = Some hold_ms;
      track_entities = true;
      retry =
        Some
          {
            Driver.max_attempts = 4;
            base_backoff_ms = 500.0;
            max_backoff_ms = 4_000.0;
            jitter = 0.5;
            jitter_seed = Des.Rng.stream_seed seed 7767;
          };
      deadline_budget_ms = timeout_ms;
    }

  let workload ~smoke =
    let cycles = if smoke then 1 else 4 in
    {
      name = "storm";
      sizes =
        [
          ("keys", "1");
          ("quota", string_of_int quota);
          ("rates_per_s", "600/2000");
          ("virtual_s", Printf.sprintf "%.0f" (float_of_int cycles *. cycle_ms /. 1000.0));
          ("durability", "amnesia+sync_always");
        ];
      generate = generate ~cycles;
      config;
      register = register_single;
      spec = spec ~cycles;
      sketch_k = 8;
    }
end

(* [smoke] shrinks every workload (fewer keys, one cycle) so the
   benchmark's own tests run in seconds; the benchmark never sets it. *)
let all ~smoke = [ Fleet.workload ~smoke; Hotspot.workload ~smoke; Storm.workload ~smoke ]

let find name = List.find_opt (fun w -> w.name = name) (all ~smoke:false)
