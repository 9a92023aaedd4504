type context = {
  params : Trace.Azure_trace.params;
  base : Trace.Azure_trace.t;
  (* The two fit caches are filled lazily and may be raced by parallel
     experiments (Pool.map); [lock] serialises the fill. Fitting is
     deterministic, so whichever domain computes first stores the value
     every other domain would have. *)
  lock : Mutex.t;
  mutable table2a_cache : (string * Ml.Forecaster.t * float) list option;
  mutable runtime_cache : Ml.Forecaster.t option;
}

let create ?(params = Trace.Azure_trace.default_params) () =
  {
    params;
    base = Trace.Azure_trace.generate params;
    lock = Mutex.create ();
    table2a_cache = None;
    runtime_cache = None;
  }

let params t = t.params

let base_trace t = t.base

(* LSTM sizing: small enough to train in seconds, big enough to learn the
   daily shape; fitted on the tail of the train split. *)
let lstm_config =
  { Ml.Lstm.default_config with hidden = 16; window = 28; epochs = 10; learning_rate = 4e-3 }

let lstm_train_points = 2_500

let train_lstm ?(config = lstm_config) series =
  let n = Array.length series in
  let tail = Array.sub series (max 0 (n - lstm_train_points)) (min n lstm_train_points) in
  Ml.Lstm.train ~config tail

(* The demand series is heavy-tailed (bursts reach 30x the mean), so the
   regression models are fitted in log space — the standard treatment for
   bursty count data; the random walk is invariant to it. *)
let log1p_array = Array.map (fun x -> log (1.0 +. Float.max 0.0 x))

(* Double-checked fill of a cache slot under [t.lock]. *)
let cached t ~get ~set fit =
  match get t with
  | Some value -> value
  | None ->
      Mutex.lock t.lock;
      let value =
        match get t with
        | Some value -> value (* another domain won the race *)
        | None ->
            let value = try fit () with exn -> Mutex.unlock t.lock; raise exn in
            set t value;
            value
      in
      Mutex.unlock t.lock;
      value

let fit_table2a t =
  cached t
    ~get:(fun t -> t.table2a_cache)
    ~set:(fun t v -> t.table2a_cache <- Some v)
    (fun () ->
      let train, test = Trace.Azure_trace.split t.base ~train_fraction:0.8 in
      let random_walk = Ml.Random_walk.forecaster () in
      let arima_model = Ml.Arima.fit ~p:3 ~d:1 (log1p_array train) in
      let arima =
        Ml.Forecaster.of_fn ~name:"arima(3,1,0)-log" ~min_history:5 (fun history ->
            Float.max 0.0 (exp (Ml.Arima.predict_next arima_model (log1p_array history)) -. 1.0))
      in
      let lstm_model = train_lstm (log1p_array train) in
      let lstm =
        Ml.Forecaster.of_fn ~name:"lstm-log" ~min_history:lstm_config.Ml.Lstm.window
          (fun history ->
            Float.max 0.0 (exp (Ml.Lstm.predict_next lstm_model (log1p_array history)) -. 1.0))
      in
      List.map
        (fun (name, forecaster) ->
          (name, forecaster, Ml.Forecaster.rolling_mae forecaster ~train ~test))
        [ ("Random Walk", random_walk); ("ARIMA", arima); ("LSTM", lstm) ])

let table2a t = List.map (fun (name, _, mae) -> (name, mae)) (fit_table2a t)

let runtime_forecaster t =
  cached t
    ~get:(fun t -> t.runtime_cache)
    ~set:(fun t v -> t.runtime_cache <- Some v)
    (fun () ->
      (* The runtime Prediction Module forecasts per-epoch NET consumption
         (creations minus deletions): that is the quantity a site must
         cover with tokens. *)
      let net =
        Array.init
          (Trace.Azure_trace.length t.base)
          (fun i ->
            t.base.Trace.Azure_trace.creations.(i) -. t.base.Trace.Azure_trace.deletions.(i))
      in
      let train, _ = Stats.Series.split_at_fraction 0.8 net in
      Ml.Lstm.forecaster (train_lstm train))

let mix_seed seed i = Int64.add seed (Int64.of_int ((i + 1) * 7_919))

let workload t ~client_regions ~duration_ms ?(compress = 60) ?(read_ratio = 0.0)
    ?(usage_scale = 1.0) ?(start_hours = 0.0) ~seed () =
  let interval_ms = t.base.Trace.Azure_trace.interval_s *. 1000.0 /. float_of_int compress in
  let intervals = int_of_float (Float.ceil (duration_ms /. interval_ms)) in
  let start_interval = int_of_float (Float.round (start_hours *. 12.0)) in
  let streams =
    Array.to_list
      (Array.mapi
         (fun client region ->
           let params =
             {
               t.params with
               Trace.Azure_trace.seed = mix_seed seed client;
               usage_level = t.params.Trace.Azure_trace.usage_level *. usage_scale;
               usage_swing = t.params.Trace.Azure_trace.usage_swing *. usage_scale;
               usage_growth_per_day =
                 t.params.Trace.Azure_trace.usage_growth_per_day *. usage_scale;
             }
           in
           let trace =
             Trace.Azure_trace.generate params
             |> Trace.Azure_trace.phase_shift
                  ~hours:(Trace.Azure_trace.region_shift_hours region)
             |> Trace.Azure_trace.compress ~factor:compress
           in
           let rng = Des.Rng.create (Int64.add (mix_seed seed client) 13L) in
           let total = Trace.Azure_trace.length trace in
           let stream =
             Trace.Workload.of_trace ~rng ~trace ~site:client ~start_interval
               ~intervals:(min intervals (total - start_interval)) ()
           in
           if read_ratio > 0.0 then Trace.Workload.with_reads ~rng ~read_ratio stream
           else stream)
         client_regions)
  in
  Trace.Workload.merge streams
