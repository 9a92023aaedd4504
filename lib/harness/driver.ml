type event = { at_ms : float; action : unit -> unit }

(* Client retry policy: how many attempts a request gets, and how the
   client paces them. Timed-out acquires/reads and shed requests of any
   kind re-enter the stream as causally-linked attempts on the same trace
   root; timed-out releases never retry (the original may have been
   applied late, and a doubled release would mint tokens). *)
type retry = {
  max_attempts : int;  (** total attempts including the first; >= 1 *)
  base_backoff_ms : float;  (** delay before attempt 2 (0 = immediate) *)
  max_backoff_ms : float;  (** cap on the doubled backoff *)
  jitter : float;
      (** fraction in [0, 1): each delay is scaled by
          [1 - jitter * u], u uniform per draw *)
  jitter_seed : int64;
      (** root of the per-client jitter streams
          ([Des.Rng.stream jitter_seed client]) — each client draws from
          its own stream on its own lane, so schedules are byte-identical
          at any [--engine-jobs] *)
}

type spec = {
  client_regions : Geonet.Region.t array;
  requests : Trace.Workload.request array;
  duration_ms : float;
  drain_ms : float;
  window_ms : float;
  events : event list;
  client_crash : (float * int) list;
  client_timeout_ms : float;
  grant_driven_release_ms : float option;
      (* Some lifetime: ignore the stream's releases; each granted acquire
         schedules its own release that much later (real VM lifetimes) *)
  obs : Obs.Sink.t option;
      (* when set, the driver records per-request spans (client lanes,
         tid 1000+) and driver.* metrics into the sink *)
  slo : Obs.Slo.t option;
      (* when set, every counted reply feeds the SLO monitor:
         commits with their latency, rejections/unavailables as aborts *)
  flight : Obs.Flight_recorder.t option;
      (* when set (with [slo]), SLO window breaches are recorded into
         lane -1 of the recorder so the watchdog can trigger on them *)
  track_entities : bool;
      (* when set, counted replies of entity-named requests additionally
         accumulate per-entity outcome counts and latency sums (the
         gateway-fleet per-key attribution) *)
  retry : retry option;
      (* when set, timed-out and shed requests re-enter as linked retry
         attempts (default None: submit once, wait forever — the
         historical behaviour) *)
  deadline_budget_ms : float;
      (* per-workload deadline budget: entity-named requests are stamped
         with the absolute deadline [first_sent + budget], which sites
         propagate and enforce (default infinity: no deadline) *)
  phases : float array;
      (* interior phase boundaries (ms, sorted ascending): requests bucket
         into [result.by_phase] by first-send time — n boundaries make
         n+1 phases ([||] = no per-phase accounting, the default) *)
}

let default_spec ~client_regions ~requests ~duration_ms =
  {
    client_regions;
    requests;
    duration_ms;
    drain_ms = 30_000.0;
    window_ms = 10_000.0;
    events = [];
    client_crash = [];
    client_timeout_ms = infinity;
    grant_driven_release_ms = None;
    obs = None;
    slo = None;
    flight = None;
    track_entities = false;
    retry = None;
    deadline_budget_ms = infinity;
    phases = [||];
  }

type entity_stats = {
  e_committed : int;
  e_rejected : int;
  e_unavailable : int;
  e_shed : int;
  e_latency_sum_ms : float;
  e_latency_max_ms : float;
}

type phase_stats = {
  p_committed : int;
  p_aborted : int;  (** rejected + unavailable + shed + timed out *)
  p_latencies : Stats.Sample_set.t;  (** committed requests only, ms *)
}

type result = {
  committed : int;
  rejected : int;
  unavailable : int;
  shed : int;
  timed_out : int;
  retries : int;
  no_reply : int;
  latencies : Stats.Sample_set.t;
  throughput : Stats.Throughput.t;
  duration_ms : float;
  by_entity : (string * entity_stats) list;
  by_phase : phase_stats array;
}

(* Client lanes live above the site lanes in the trace (tid 1000+). *)
let client_tid client = 1000 + client

let span_name = function
  | Trace.Workload.Acquire -> "req.acquire"
  | Trace.Workload.Release -> "req.release"
  | Trace.Workload.Read -> "req.read"

(* Per-client accumulators. A client's replies execute on its region's
   lane, concurrently with other lanes, so each client accumulates into
   its own slot and the slots are merged in client order after the run —
   an order that is a function of the simulation alone, never of the
   domain count. *)
type ent_acc = {
  mutable ec : int;
  mutable er : int;
  mutable eu : int;
  mutable es : int;
  mutable elsum : float;
  mutable elmax : float;
}

(* Abort tags: 1 = rejected, 2 = unavailable, 3 = shed, 4 = timeout. *)
let cls_name = function
  | 1 -> "rejected"
  | 2 -> "unavailable"
  | 3 -> "shed"
  | _ -> "timeout"

type acc = {
  window_ms : float;
  lat : Stats.Sample_set.t array;
  tp : Stats.Throughput.t array;
  committed : int array;
  rejected : int array;
  unavailable : int array;
  shed : int array;
  timedout : int array;
  retries : int array;
  submitted : int array;
  replied : int array;
  ents : (string, ent_acc) Hashtbl.t array;
  (* per-phase accounting (clients x phases); empty unless [spec.phases] *)
  n_phases : int;
  ph_lat : Stats.Sample_set.t array array;
  ph_committed : int array array;
  ph_aborted : int array array;
}

let acc_create ?(n_phases = 0) ~n_clients:slots ~window_ms () =
  {
    window_ms;
    lat = Array.init slots (fun _ -> Stats.Sample_set.create ());
    tp = Array.init slots (fun _ -> Stats.Throughput.create ~window_ms);
    committed = Array.make slots 0;
    rejected = Array.make slots 0;
    unavailable = Array.make slots 0;
    shed = Array.make slots 0;
    timedout = Array.make slots 0;
    retries = Array.make slots 0;
    submitted = Array.make slots 0;
    replied = Array.make slots 0;
    ents = Array.init slots (fun _ -> Hashtbl.create 16);
    n_phases;
    ph_lat =
      Array.init slots (fun _ ->
          Array.init n_phases (fun _ -> Stats.Sample_set.create ()));
    ph_committed = Array.init slots (fun _ -> Array.make n_phases 0);
    ph_aborted = Array.init slots (fun _ -> Array.make n_phases 0);
  }

let ent_for tbl entity =
  match Hashtbl.find_opt tbl entity with
  | Some e -> e
  | None ->
      let e = { ec = 0; er = 0; eu = 0; es = 0; elsum = 0.0; elmax = 0.0 } in
      Hashtbl.add tbl entity e;
      e

let acc_result acc ~duration_ms : result =
  let sum = Array.fold_left ( + ) 0 in
  let latencies = Stats.Sample_set.create () in
  Array.iter (fun s -> Stats.Sample_set.merge_into s ~into:latencies) acc.lat;
  let throughput = Stats.Throughput.create ~window_ms:acc.window_ms in
  Array.iter (fun t -> Stats.Throughput.merge_into t ~into:throughput) acc.tp;
  (* Per-entity merge: slots in slot order, each slot's entries in entity
     order — a deterministic order whatever the hash-table iteration
     happens to be, so runs stay reproducible. *)
  let by_entity =
    let merged : (string, ent_acc) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun tbl ->
        Hashtbl.fold (fun entity e l -> (entity, e) :: l) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (entity, (e : ent_acc)) ->
               let m = ent_for merged entity in
               m.ec <- m.ec + e.ec;
               m.er <- m.er + e.er;
               m.eu <- m.eu + e.eu;
               m.es <- m.es + e.es;
               m.elsum <- m.elsum +. e.elsum;
               if e.elmax > m.elmax then m.elmax <- e.elmax))
      acc.ents;
    Hashtbl.fold (fun entity m l -> (entity, m) :: l) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (entity, (m : ent_acc)) ->
           ( entity,
             {
               e_committed = m.ec;
               e_rejected = m.er;
               e_unavailable = m.eu;
               e_shed = m.es;
               e_latency_sum_ms = m.elsum;
               e_latency_max_ms = m.elmax;
             } ))
  in
  (* Phase merge in slot order — deterministic at any domain count. *)
  let by_phase =
    Array.init acc.n_phases (fun p ->
        let lat = Stats.Sample_set.create () in
        let committed = ref 0 and aborted = ref 0 in
        for s = 0 to Array.length acc.lat - 1 do
          Stats.Sample_set.merge_into acc.ph_lat.(s).(p) ~into:lat;
          committed := !committed + acc.ph_committed.(s).(p);
          aborted := !aborted + acc.ph_aborted.(s).(p)
        done;
        { p_committed = !committed; p_aborted = !aborted; p_latencies = lat })
  in
  {
    committed = sum acc.committed;
    rejected = sum acc.rejected;
    unavailable = sum acc.unavailable;
    shed = sum acc.shed;
    timed_out = sum acc.timedout;
    retries = sum acc.retries;
    no_reply = sum acc.submitted - sum acc.replied;
    latencies;
    throughput;
    duration_ms;
    by_entity;
    by_phase;
  }

(* The driver-side instruments, resolved once per run. *)
type instr = {
  i_sink : Obs.Sink.t;
  i_lat : Obs.Metrics.histogram;
  i_commit : Obs.Metrics.counter;
  i_rej : Obs.Metrics.counter;
  i_unavail : Obs.Metrics.counter;
  i_shed : Obs.Metrics.counter;
  i_timeout : Obs.Metrics.counter;
  i_retry : Obs.Metrics.counter;
}

(* NaN-safe spec validation (a NaN budget or backoff fails every
   comparison, so each knob is written as "reject unless provably
   sane"). *)
let validate_spec (spec : spec) =
  if not (spec.window_ms > 0.0 && spec.window_ms < infinity) then
    invalid_arg
      (Printf.sprintf "Driver.run: window_ms must be positive and finite (got %g)"
         spec.window_ms);
  if not (spec.deadline_budget_ms > 0.0) then
    invalid_arg
      (Printf.sprintf "Driver.run: deadline_budget_ms must be positive (got %g)"
         spec.deadline_budget_ms);
  Array.iteri
    (fun i b ->
      if not (b > 0.0 && b < infinity) then
        invalid_arg
          (Printf.sprintf
             "Driver.run: phase boundaries must be positive and finite (got %g)"
             b);
      if i > 0 && not (b > spec.phases.(i - 1)) then
        invalid_arg "Driver.run: phase boundaries must be strictly ascending")
    spec.phases;
  match spec.retry with
  | None -> ()
  | Some r ->
      if r.max_attempts < 1 then
        invalid_arg
          (Printf.sprintf "Driver.run: retry.max_attempts must be >= 1 (got %d)"
             r.max_attempts);
      if not (r.base_backoff_ms >= 0.0) then
        invalid_arg
          (Printf.sprintf
             "Driver.run: retry.base_backoff_ms must be non-negative (got %g)"
             r.base_backoff_ms);
      if not (r.max_backoff_ms >= r.base_backoff_ms) then
        invalid_arg
          (Printf.sprintf
             "Driver.run: retry.max_backoff_ms must be >= base_backoff_ms (got %g < %g)"
             r.max_backoff_ms r.base_backoff_ms);
      if not (r.jitter >= 0.0 && r.jitter < 1.0) then
        invalid_arg
          (Printf.sprintf "Driver.run: retry.jitter must be in [0, 1) (got %g)"
             r.jitter)

let run ~(t_system : Systems.facade) spec =
  validate_spec spec;
  let n_clients = Array.length spec.client_regions in
  let engines = Array.map t_system.Systems.sched_region spec.client_regions in
  let t0 = t_system.Systems.now () in
  let n_phases =
    if Array.length spec.phases = 0 then 0 else Array.length spec.phases + 1
  in
  let acc = acc_create ~n_phases ~n_clients ~window_ms:spec.window_ms () in
  (* Phase of a first-send instant (relative to t0): the number of
     boundaries at or before it. Linear scan — phase counts are tiny. *)
  let phase_of rel =
    let p = ref 0 in
    Array.iter (fun b -> if rel >= b then incr p) spec.phases;
    !p
  in
  let cutoffs = Array.make n_clients infinity in
  List.iter (fun (at, client) -> cutoffs.(client) <- Float.min cutoffs.(client) at)
    spec.client_crash;
  (* Observability: resolve the driver's instruments once, name the
     client lanes. The un-observed path keeps a single None check. *)
  let instrument =
    match spec.obs with
    | None -> None
    | Some sink ->
        let m = sink.Obs.Sink.metrics in
        Array.iteri
          (fun i region ->
            let name = Printf.sprintf "client %d (%s)" i (Geonet.Region.name region) in
            Obs.Trace_log.record sink.Obs.Sink.log (Thread_name { tid = client_tid i; name }))
          spec.client_regions;
        Some
          {
            i_sink = sink;
            i_lat = Obs.Metrics.histogram m "driver.commit_latency_ms";
            i_commit = Obs.Metrics.counter m "driver.committed";
            i_rej = Obs.Metrics.counter m "driver.rejected";
            i_unavail = Obs.Metrics.counter m "driver.unavailable";
            i_shed = Obs.Metrics.counter m "driver.shed";
            i_timeout = Obs.Metrics.counter m "driver.timed_out";
            i_retry = Obs.Metrics.counter m "driver.retries";
          }
  in
  (* SLO: each client slot writes its own window cells on its own lane;
     after the run the cells are absorbed in slot order and evaluated in
     window order (exact merge: the result is that of one time-ordered
     monitor, at any domain count). *)
  let slo_feeds =
    match spec.slo with
    | None -> [||]
    | Some slo -> Array.init n_clients (fun _ -> Obs.Slo.feed slo)
  in
  (* SLO window breaches feed the flight recorder's driver lane (-1).
     The stamp is the window's nominal end, in absolute virtual time, so
     breaches evaluated after the run land where they happened. *)
  (match (spec.slo, spec.flight) with
  | Some slo, Some recorder ->
      Obs.Slo.on_violation slo
        (fun ~name ~window_start_ms ~window_end_ms ~value ~target ->
          let render v =
            if target < 1.0 then Printf.sprintf "%.4f" v
            else Printf.sprintf "%.1f ms" v
          in
          Obs.Flight_recorder.record recorder ~lane:(-1)
            ~ts:(t0 +. window_end_ms) ~kind:Obs.Flight_recorder.Slo_breach
            ~entity:name
            (Printf.sprintf "window [%.0f s, %.0f s): %s > target %s"
               (window_start_ms /. 1000.0) (window_end_ms /. 1000.0)
               (render value) (render target)))
  | _ -> ());
  (* Failure schedule: crash/partition/heal actions mutate state every
     lane reads, so they run at window barriers. *)
  List.iter
    (fun { at_ms; action } ->
      t_system.Systems.schedule_global ~time_ms:(t0 +. at_ms) action)
    spec.events;
  (* Open-loop replay with chained dispatchers to keep the heap small.
     Clients track their outstanding tokens: a release is only issued
     against tokens actually granted (§3.2 — "an individual client never
     returns more tokens than what it has acquired"), so rejected acquires
     do not spawn phantom releases that would quietly refill the pool. *)
  let n = Array.length spec.requests in
  let outstanding = Array.make n_clients 0 in
  let max_attempts = match spec.retry with None -> 1 | Some r -> r.max_attempts in
  (* Per-client jitter streams, created only when a policy actually draws
     from them: a jitterless run consumes no randomness at all. Each
     client draws from its own stream on its own lane, so the schedule is
     a function of the simulation alone, never of the domain count. *)
  let retry_rngs =
    match spec.retry with
    | Some r when r.jitter > 0.0 ->
        Array.init n_clients (fun c -> Des.Rng.stream r.jitter_seed c)
    | _ -> [||]
  in
  let backoff_ms client ~completed =
    match spec.retry with
    | None -> 0.0
    | Some r ->
        let d =
          Float.min r.max_backoff_ms
            (r.base_backoff_ms *. (2.0 ** float_of_int (completed - 1)))
        in
        if r.jitter > 0.0 then
          d *. (1.0 -. r.jitter *. Des.Rng.float retry_rngs.(client) 1.0)
        else d
  in
  let rec issue ~synthetic (request : Trace.Workload.request) =
    let client = request.site in
    let engine = engines.(client) in
    let skip_release =
      (not synthetic)
      && request.kind = Trace.Workload.Release
      && (outstanding.(client) < request.amount || spec.grant_driven_release_ms <> None)
    in
    if
      request.time_ms < cutoffs.(client)
      && request.time_ms <= spec.duration_ms
      && not skip_release
    then begin
      let first_sent = Des.Engine.now engine in
      let deadline =
        if spec.deadline_budget_ms = infinity then infinity
        else first_sent +. spec.deadline_budget_ms
      in
      let region = spec.client_regions.(client) in
      let submit ~reply =
        if request.entity <> "" then
          (* Multi-entity path: the request names its own key; the facade's
             generic verb carries it (and the absolute deadline) to the
             cluster untranslated. *)
          let r =
            match request.kind with
            | Trace.Workload.Acquire ->
                Samya.Types.Acquire
                  {
                    entity = request.entity;
                    amount = request.amount;
                    deadline_ms = deadline;
                  }
            | Trace.Workload.Release ->
                Samya.Types.Release
                  {
                    entity = request.entity;
                    amount = request.amount;
                    deadline_ms = deadline;
                  }
            | Trace.Workload.Read ->
                Samya.Types.Read { entity = request.entity; deadline_ms = deadline }
          in
          t_system.Systems.submit ~region r ~reply
        else
          match request.kind with
          | Trace.Workload.Acquire ->
              t_system.Systems.acquire ~region ~amount:request.amount ~reply
          | Trace.Workload.Release ->
              t_system.Systems.release ~region ~amount:request.amount ~reply
          | Trace.Workload.Read -> t_system.Systems.read ~region ~reply
      in
      (* One span and one causal root per request: every retry attempt runs
         under the same trace, so [explain] shows them as extra service
         legs on one root, closed by a single terminal Completed. *)
      let inst =
        match instrument with
        | None -> None
        | Some i ->
            let span =
              Obs.Trace_log.start i.i_sink.Obs.Sink.log ~cat:"request"
                ~tid:(client_tid client) (span_name request.kind)
            in
            let trace = Des.Engine.fresh_id engine in
            Obs.Trace_log.record i.i_sink.Obs.Sink.log
              (Submitted
                 {
                   trace;
                   client;
                   kind = span_name request.kind;
                   entity = request.entity;
                   ts = first_sent;
                 });
            Some (i, span, trace)
      in
      let finish_instr ~outcome ~now =
        match inst with
        | None -> ()
        | Some (i, span, trace) ->
            Obs.Trace_log.finish i.i_sink.Obs.Sink.log
              ~args:[ ("outcome", outcome) ]
              span;
            Obs.Trace_log.record i.i_sink.Obs.Sink.log
              (Completed { trace; outcome; ts = now })
      in
      let rec attempt n_attempt =
        acc.submitted.(client) <- acc.submitted.(client) + 1;
        if n_attempt > 1 then begin
          acc.retries.(client) <- acc.retries.(client) + 1;
          match inst with
          | Some (i, _, _) -> Obs.Metrics.incr i.i_retry
          | None -> ()
        end;
        let sent_at = Des.Engine.now engine in
        let settled = ref false in
        let retry_after () =
          Des.Engine.schedule engine
            ~delay_ms:(backoff_ms client ~completed:n_attempt) (fun () ->
              (* The client may have crashed while backing off. *)
              if Des.Engine.now engine -. t0 < cutoffs.(client) then
                attempt (n_attempt + 1))
        in
        let commit_terminal ~now =
          let lat = now -. first_sent in
          acc.committed.(client) <- acc.committed.(client) + 1;
          Stats.Sample_set.add acc.lat.(client) lat;
          Stats.Throughput.record acc.tp.(client) ~time_ms:(now -. t0);
          if acc.n_phases > 0 then begin
            (* Retry attempts share [first_sent], so a whole request
               buckets into the phase that originated it. *)
            let p = phase_of (first_sent -. t0) in
            acc.ph_committed.(client).(p) <- acc.ph_committed.(client).(p) + 1;
            Stats.Sample_set.add acc.ph_lat.(client).(p) lat
          end;
          if spec.track_entities && request.entity <> "" then begin
            let e = ent_for acc.ents.(client) request.entity in
            e.ec <- e.ec + 1;
            e.elsum <- e.elsum +. lat;
            if lat > e.elmax then e.elmax <- lat
          end;
          (match spec.slo with
          | Some _ -> Obs.Slo.Feed.commit slo_feeds.(client) ~start_ms:t0 ~now_ms:now
                ~latency_ms:lat
          | None -> ());
          (match inst with
          | Some (i, _, _) ->
              Obs.Metrics.incr i.i_commit;
              Obs.Metrics.observe i.i_lat lat
          | None -> ());
          finish_instr ~outcome:"granted" ~now
        in
        let abort_terminal ~now ~tag =
          (match tag with
          | 1 -> acc.rejected.(client) <- acc.rejected.(client) + 1
          | 2 -> acc.unavailable.(client) <- acc.unavailable.(client) + 1
          | 3 -> acc.shed.(client) <- acc.shed.(client) + 1
          | _ -> acc.timedout.(client) <- acc.timedout.(client) + 1);
          (if acc.n_phases > 0 then
             let p = phase_of (first_sent -. t0) in
             acc.ph_aborted.(client).(p) <- acc.ph_aborted.(client).(p) + 1);
          if spec.track_entities && request.entity <> "" then begin
            let e = ent_for acc.ents.(client) request.entity in
            match tag with
            | 1 -> e.er <- e.er + 1
            | 2 -> e.eu <- e.eu + 1
            | 3 -> e.es <- e.es + 1
            | _ -> ()
          end;
          (match spec.slo with
          | Some _ -> Obs.Slo.Feed.abort slo_feeds.(client) ~cls:(cls_name tag)
                ~start_ms:t0 ~now_ms:now
          | None -> ());
          (match inst with
          | Some (i, _, _) ->
              Obs.Metrics.incr
                (match tag with
                | 1 -> i.i_rej
                | 2 -> i.i_unavail
                | 3 -> i.i_shed
                | _ -> i.i_timeout)
          | None -> ());
          finish_instr ~outcome:(cls_name tag) ~now
        in
        (* With a retry policy and a finite client timeout, a watchdog
           abandons the attempt at the timeout instead of waiting for a
           reply that may never come — which is exactly what breeds a
           retry storm: the server may still be working on the original.
           Timed-out releases never retry (at-most-once: the original may
           have been applied late, and a doubled release mints tokens). *)
        let watchdog =
          match spec.retry with
          | Some _ when spec.client_timeout_ms < infinity ->
              Some
                (Des.Engine.timer ~label:"driver.retry.timeout" engine
                   ~delay_ms:spec.client_timeout_ms (fun () ->
                     if not !settled then begin
                       settled := true;
                       let now = Des.Engine.now engine in
                       if now -. t0 >= cutoffs.(client) then ()
                       else if
                         n_attempt < max_attempts
                         && request.kind <> Trace.Workload.Release
                       then retry_after ()
                       else abort_terminal ~now ~tag:4
                     end))
          | _ -> None
        in
        let reply response =
          acc.replied.(client) <- acc.replied.(client) + 1;
          (* Token bookkeeping runs on every reply, even abandoned ones: a
             grant that arrives after the client gave up still moved real
             tokens, and grant-driven releases must return them. *)
          (match (request.kind, response) with
          | Trace.Workload.Acquire, Samya.Types.Granted -> (
              outstanding.(client) <- outstanding.(client) + request.amount;
              match spec.grant_driven_release_ms with
              | Some lifetime_ms ->
                  Des.Engine.schedule engine ~delay_ms:lifetime_ms (fun () ->
                      (* A grant-driven release: these tokens are held by
                         construction. *)
                      issue ~synthetic:true
                        { request with kind = Trace.Workload.Release; time_ms = 0.0 })
              | None -> ())
          | Trace.Workload.Release, Samya.Types.Granted ->
              (* Settled on grant, not on issue: a shed release (never
                 replied) must not leak the client's holdings. *)
              outstanding.(client) <- outstanding.(client) - request.amount
          | _ -> ());
          if not !settled then begin
            settled := true;
            (match watchdog with Some w -> Des.Engine.cancel w | None -> ());
            let now = Des.Engine.now engine in
            if now -. t0 >= cutoffs.(client) then
              (* Crashed client: the reply is discarded for accounting, but
                 the observability story still closes the span/trace (the
                 system did do the work). *)
              let outcome =
                match response with
                | Samya.Types.Granted | Samya.Types.Read_result _ ->
                    (match inst with
                    | Some (i, _, _) ->
                        Obs.Metrics.incr i.i_commit;
                        Obs.Metrics.observe i.i_lat (now -. first_sent)
                    | None -> ());
                    "granted"
                | Samya.Types.Rejected ->
                    (match inst with
                    | Some (i, _, _) -> Obs.Metrics.incr i.i_rej
                    | None -> ());
                    "rejected"
                | Samya.Types.Unavailable ->
                    (match inst with
                    | Some (i, _, _) -> Obs.Metrics.incr i.i_unavail
                    | None -> ());
                    "unavailable"
                | Samya.Types.Rejected_deadline ->
                    (match inst with
                    | Some (i, _, _) -> Obs.Metrics.incr i.i_shed
                    | None -> ());
                    "shed"
              in
              finish_instr ~outcome ~now
            else if now -. sent_at > spec.client_timeout_ms then
              (* Late reply with no watchdog armed (no retry policy): the
                 client had already given up — attribute the request as a
                 timeout instead of letting it silently vanish from every
                 outcome bucket. *)
              abort_terminal ~now ~tag:4
            else
              match response with
              | Samya.Types.Granted | Samya.Types.Read_result _ ->
                  commit_terminal ~now
              | Samya.Types.Rejected -> abort_terminal ~now ~tag:1
              | Samya.Types.Unavailable -> abort_terminal ~now ~tag:2
              | Samya.Types.Rejected_deadline ->
                  if n_attempt < max_attempts then retry_after ()
                  else abort_terminal ~now ~tag:3
          end
        in
        match inst with
        | None -> submit ~reply
        | Some (_, _, trace) ->
            (* Root of the causal trace: everything the system does on this
               request's behalf (hops, queueing, protocol phases) inherits
               the context through the engine's ambient propagation. *)
            Des.Engine.with_context engine
              (Des.Trace_context.root ~trace)
              (fun () -> submit ~reply)
      in
      attempt 1
    end
  in
  (* One chain per client on the client's own lane, so a lane only ever
     schedules onto itself and consecutive arrivals never form a
     cross-lane dependency. Each chain schedules its next arrival lazily,
     keeping the event heap small even for million-request streams. *)
  let per_client = Array.make n_clients [] in
  for i = n - 1 downto 0 do
    let client = spec.requests.(i).Trace.Workload.site in
    per_client.(client) <- i :: per_client.(client)
  done;
  Array.iteri
    (fun client indices ->
      let engine = engines.(client) in
      let rec dispatch = function
        | [] -> ()
        | i :: rest ->
            let request = spec.requests.(i) in
            if request.Trace.Workload.time_ms > spec.duration_ms then ()
            else
              Des.Engine.schedule_at engine
                ~time_ms:(t0 +. request.Trace.Workload.time_ms)
                (fun () ->
                  issue ~synthetic:false request;
                  dispatch rest)
      in
      dispatch indices)
    per_client;
  t_system.Systems.run_until (t0 +. spec.duration_ms +. spec.drain_ms);
  (match spec.slo with
  | Some slo ->
      (* Evaluate now, so breaches reach the flight recorder before anyone
         dumps it; the eventual [report] counts nothing twice. *)
      Array.iter (Obs.Slo.absorb slo) slo_feeds;
      Obs.Slo.flush slo
  | None -> ());
  acc_result acc ~duration_ms:spec.duration_ms

let average_tps (result : result) =
  float_of_int result.committed /. (result.duration_ms /. 1000.0)

let percentile (result : result) p = Stats.Sample_set.percentile result.latencies p

let run_closed ~(t_system : Systems.facade) ~client_regions ~requests ~duration_ms
    ~workers_per_client ~window_ms =
  let n_clients = Array.length client_regions in
  let engines = Array.map t_system.Systems.sched_region client_regions in
  let t0 = t_system.Systems.now () in
  let acc = acc_create ~n_clients ~window_ms () in
  (* Partition the stream per client; workers consume their client's
     requests back to back (arrival times are ignored: the loop is closed).
     All of a client's state — its queue, outstanding tokens, worker
     chains — lives on its region's lane. *)
  let per_client = Array.map (fun _ -> Queue.create ()) client_regions in
  Array.iter
    (fun (r : Trace.Workload.request) -> Queue.push r per_client.(r.site))
    requests;
  let no_reply = Array.make n_clients 0 in
  let outstanding = Array.make n_clients 0 in
  let rec worker client =
    let engine = engines.(client) in
    if Des.Engine.now engine -. t0 < duration_ms then begin
      match Queue.take_opt per_client.(client) with
      | None -> ()
      | Some request ->
          if request.kind = Trace.Workload.Release && outstanding.(client) < request.amount
          then worker client (* nothing to give back yet; skip *)
          else begin
            let sent_at = Des.Engine.now engine in
            (* A dropped request (a shed transaction never replies) must not
               kill the worker: a watchdog moves it on after a timeout. *)
            let settled = ref false in
            let watchdog =
              Des.Engine.timer engine ~delay_ms:5_000.0 (fun () ->
                  if not !settled then begin
                    settled := true;
                    no_reply.(client) <- no_reply.(client) + 1;
                    worker client
                  end)
            in
            let reply response =
              if not !settled then begin
                settled := true;
                Des.Engine.cancel watchdog;
                let now = Des.Engine.now engine in
                (match (request.kind, response) with
                | Trace.Workload.Acquire, Samya.Types.Granted ->
                    outstanding.(client) <- outstanding.(client) + request.amount
                | Trace.Workload.Release, Samya.Types.Granted ->
                    outstanding.(client) <- outstanding.(client) - request.amount
                | _ -> ());
                (match response with
                | Samya.Types.Granted | Samya.Types.Read_result _ ->
                    if now -. t0 <= duration_ms then begin
                      acc.committed.(client) <- acc.committed.(client) + 1;
                      Stats.Sample_set.add acc.lat.(client) (now -. sent_at);
                      Stats.Throughput.record acc.tp.(client) ~time_ms:(now -. t0)
                    end
                | Samya.Types.Rejected ->
                    acc.rejected.(client) <- acc.rejected.(client) + 1
                | Samya.Types.Rejected_deadline ->
                    acc.shed.(client) <- acc.shed.(client) + 1
                | Samya.Types.Unavailable ->
                    acc.unavailable.(client) <- acc.unavailable.(client) + 1);
                worker client
              end
            in
            let region = client_regions.(client) in
            match request.kind with
            | Trace.Workload.Acquire ->
                t_system.Systems.acquire ~region ~amount:request.amount ~reply
            | Trace.Workload.Release ->
                t_system.Systems.release ~region ~amount:request.amount ~reply
            | Trace.Workload.Read -> t_system.Systems.read ~region ~reply
          end
    end
  in
  Array.iteri
    (fun client _ ->
      for _ = 1 to workers_per_client do
        worker client
      done)
    client_regions;
  t_system.Systems.run_until (t0 +. duration_ms +. 10_000.0);
  let result = acc_result acc ~duration_ms in
  { result with no_reply = Array.fold_left ( + ) 0 no_reply }
