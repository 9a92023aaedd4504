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
      (* per-workload deadline budget: every request is stamped with the
         absolute deadline [first_sent + budget], which sites propagate
         and enforce (default infinity: no deadline) *)
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

(* A client's counted replies in reply order, kept while
   [spec.track_entities]: one outcome tag per reply, and the requests'
   entities run-length encoded over the tags (an entity is stored once per
   run of consecutive replies naming it). Commit latencies are not copied:
   the client's latency slot [lat] holds them in the same order. Only the
   client's lane appends. *)
type reply_log = {
  lat : Stats.Sample_set.t;
  mutable tags : Bytes.t;
  mutable n_tags : int;
  mutable names : string array;  (* run r's entity ("" = unnamed) *)
  mutable starts : int array;  (* run r's first tag *)
  mutable n_runs : int;
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
  reply_logs : reply_log array;
  by_phase : phase_stats array;
}

(* A stream request as the system sees it: an unnamed one ([entity = ""])
   targets the entity the system's builder registered. *)
let to_request ~(t_system : Systems.facade) ~deadline_ms
    (request : Trace.Workload.request) =
  let entity =
    if request.entity = "" then t_system.Systems.entity else request.entity
  in
  match request.kind with
  | Trace.Workload.Acquire ->
      Samya.Types.Acquire { entity; amount = request.amount; deadline_ms }
  | Trace.Workload.Release ->
      Samya.Types.Release { entity; amount = request.amount; deadline_ms }
  | Trace.Workload.Read -> Samya.Types.Read { entity; deadline_ms }

(* Client lanes live above the site lanes in the trace (tid 1000+). *)
let client_tid client = 1000 + client

let span_name = function
  | Trace.Workload.Acquire -> "req.acquire"
  | Trace.Workload.Release -> "req.release"
  | Trace.Workload.Read -> "req.read"

(* Outcome tags: 0 = committed; aborts 1 = rejected, 2 = unavailable,
   3 = shed, 4 = timeout. *)
let tag_of_response = function
  | Samya.Types.Granted | Samya.Types.Read_result _ -> 0
  | Samya.Types.Rejected -> 1
  | Samya.Types.Unavailable -> 2
  | Samya.Types.Rejected_deadline -> 3

let cls_name = function
  | 0 -> "granted"
  | 1 -> "rejected"
  | 2 -> "unavailable"
  | 3 -> "shed"
  | _ -> "timeout"

(* Per-client accumulators. A client's replies execute on its region's
   lane, concurrently with other lanes, so each client accumulates into
   its own slot and the slots are merged in client order after the run —
   an order that is a function of the simulation alone, never of the
   domain count. *)
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
  replies : reply_log array;  (* empty unless [spec.track_entities] *)
  (* per-phase accounting (clients x phases); empty unless [spec.phases] *)
  n_phases : int;
  ph_tags : Bytes.t array;
      (* per client, the phase of its latency sample [i] as byte [i]: each
         commit latency is stored once, in [lat] *)
  ph_committed : int array array;
  ph_aborted : int array array;
}

(* A client's outstanding tokens, which its releases may not exceed
   (§3.2), so rejected acquires spawn no phantom releases. They move on
   grants, not on issue: a shed release (never replied) must not leak
   them. *)
let hold outstanding (request : Trace.Workload.request) response =
  match (request.kind, response) with
  | Trace.Workload.Acquire, Samya.Types.Granted ->
      outstanding.(request.site) <- outstanding.(request.site) + request.amount
  | Trace.Workload.Release, Samya.Types.Granted ->
      outstanding.(request.site) <- outstanding.(request.site) - request.amount
  | _ -> ()

(* One outcome into a client's slot. *)
let count acc client ~tag ~lat ~time_ms =
  match tag with
  | 0 ->
      acc.committed.(client) <- acc.committed.(client) + 1;
      Stats.Sample_set.add acc.lat.(client) lat;
      Stats.Throughput.record acc.tp.(client) ~time_ms
  | 1 -> acc.rejected.(client) <- acc.rejected.(client) + 1
  | 2 -> acc.unavailable.(client) <- acc.unavailable.(client) + 1
  | 3 -> acc.shed.(client) <- acc.shed.(client) + 1
  | _ -> acc.timedout.(client) <- acc.timedout.(client) + 1

let log_create lat =
  { lat; tags = Bytes.empty; n_tags = 0; names = [||]; starts = [||]; n_runs = 0 }

let grow a ~fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let log_reply l entity tag =
  let n = l.n_tags in
  if n = Bytes.length l.tags then l.tags <- Bytes.extend l.tags 0 (max 64 n);
  Bytes.set l.tags n (Char.unsafe_chr tag);
  l.n_tags <- n + 1;
  let r = l.n_runs in
  if r = 0 || not (String.equal l.names.(r - 1) entity) then begin
    if r = Array.length l.names then begin
      l.names <- grow l.names ~fill:"";
      l.starts <- grow l.starts ~fill:0
    end;
    l.names.(r) <- entity;
    l.starts.(r) <- n;
    l.n_runs <- r + 1
  end

let acc_create ?(n_phases = 0) ?(track_entities = false) ~n_clients:slots ~window_ms () =
  let lat = Array.init slots (fun _ -> Stats.Sample_set.create ()) in
  {
    window_ms;
    lat;
    tp = Array.init slots (fun _ -> Stats.Throughput.create ~window_ms);
    committed = Array.make slots 0;
    rejected = Array.make slots 0;
    unavailable = Array.make slots 0;
    shed = Array.make slots 0;
    timedout = Array.make slots 0;
    retries = Array.make slots 0;
    submitted = Array.make slots 0;
    replied = Array.make slots 0;
    replies = (if track_entities then Array.map log_create lat else [||]);
    n_phases;
    ph_tags = Array.make slots Bytes.empty;
    ph_committed = Array.init slots (fun _ -> Array.make n_phases 0);
    ph_aborted = Array.init slots (fun _ -> Array.make n_phases 0);
  }

(* Tags the client's newest latency sample (just added) with phase [ph]. *)
let tag_phase acc client ph =
  let i = Stats.Sample_set.count acc.lat.(client) - 1 in
  if i = Bytes.length acc.ph_tags.(client) then
    acc.ph_tags.(client) <- Bytes.extend acc.ph_tags.(client) 0 (max 64 i);
  Bytes.set acc.ph_tags.(client) i (Char.unsafe_chr ph)

(* Phase [p]'s total over the slots' [counts]. *)
let phase_total counts p = Array.fold_left (fun n slot -> n + slot.(p)) 0 counts

(* Each phase's commit latencies, at the exact size its commit count
   gives, in slot order and each slot in reply order: a function of the
   simulation alone, never of the domain count. *)
let phase_latencies acc =
  if acc.n_phases = 0 then [||]
  else
    Stats.Sample_set.partition acc.lat ~tags:acc.ph_tags
      ~sizes:(Array.init acc.n_phases (phase_total acc.ph_committed))

let acc_result acc ~duration_ms : result =
  let sum = Array.fold_left ( + ) 0 in
  let latencies = Stats.Sample_set.concat acc.lat in
  let throughput = Stats.Throughput.create ~window_ms:acc.window_ms in
  Array.iter (fun t -> Stats.Throughput.merge_into t ~into:throughput) acc.tp;
  let by_phase =
    Array.mapi
      (fun p lat ->
        {
          p_committed = Stats.Sample_set.count lat;
          p_aborted = phase_total acc.ph_aborted p;
          p_latencies = lat;
        })
      (phase_latencies acc)
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
    reply_logs = acc.replies;
    by_phase;
  }

(* A FIFO of unboxed floats, grown by doubling. *)
type stamps = { mutable ring : float array; mutable head : int; mutable len : int }

let stamps () = { ring = [||]; head = 0; len = 0 }

let stamps_push s x =
  let cap = Array.length s.ring in
  if s.len = cap then begin
    let ring = Array.make (max 16 (2 * cap)) 0.0 in
    for k = 0 to s.len - 1 do
      ring.(k) <- s.ring.((s.head + k) mod cap)
    done;
    s.ring <- ring;
    s.head <- 0
  end;
  s.ring.((s.head + s.len) mod Array.length s.ring) <- x;
  s.len <- s.len + 1

let stamps_pop s =
  let x = s.ring.(s.head) in
  s.head <- (s.head + 1) mod Array.length s.ring;
  s.len <- s.len - 1;
  x

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
  (* A commit's phase is stored as one byte. *)
  if Array.length spec.phases > 255 then
    invalid_arg
      (Printf.sprintf "Driver.run: at most 255 phase boundaries (got %d)"
         (Array.length spec.phases));
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

(* One stream request across all of its attempts. Only the latest attempt
   can be unsettled (a new attempt starts after the previous one
   settled), so a reply or timeout for attempt [n] counts iff
   [n = p_attempt] and the attempt has not settled. *)
type pending = {
  p_request : Trace.Workload.request;  (* its [site] is the client *)
  p_system : Samya.Types.request;  (* built once, sent by every attempt *)
  p_first_sent : float;
  p_inst : (instr * Obs.Trace_log.span * int) option;
      (* the request's span and causal trace root, when observed *)
  mutable p_attempt : int;
  mutable p_settled : bool;
  mutable p_sent_at : float;
}

(* A run's fixed context, resolved once: everything a request's handlers
   read, so they are top-level functions over it instead of closures
   built per request. *)
type ctx = {
  spec : spec;
  t_system : Systems.facade;
  engines : Des.Engine.t array;
  t0 : float;
  acc : acc;
  cutoffs : float array;  (* per-client crash time, relative to t0 *)
  outstanding : int array;  (* per-client tokens held, see [hold] *)
  retry_rngs : Des.Rng.t array;
  instrument : instr option;
  slo_feeds : Obs.Slo.Feed.t array;
  mutable timeouts : (pending * int) Des.Engine.line array;
      (* per client, its attempts (with their numbers) in arrival order,
         due at their deadlines; empty unless attempts time out *)
  mutable releases : Trace.Workload.request Des.Engine.line array;
      (* per client, the granted acquires whose grant-driven release is
         due, in arrival order, on the client's lane; empty unless
         grant-driven releases *)
  mutable release_issues : stamps array;
      (* per client, the issue times of its release line's entries, in
         step with it: the line keeps every entry *)
}

(* Phase of a request's first send (relative to t0): the number of
   boundaries at or before it. A plain loop — phase counts are tiny — that
   keeps the instant in a register: no closure, no boxed float. *)
let phase_of c p =
  let rel = p.p_first_sent -. c.t0 in
  let phases = c.spec.phases in
  let ph = ref 0 in
  for i = 0 to Array.length phases - 1 do
    if rel >= phases.(i) then incr ph
  done;
  !ph

let max_attempts spec = match spec.retry with None -> 1 | Some r -> r.max_attempts

let backoff_ms c client ~completed =
  match c.spec.retry with
  | None -> 0.0
  | Some r ->
      let d =
        Float.min r.max_backoff_ms
          (r.base_backoff_ms *. (2.0 ** float_of_int (completed - 1)))
      in
      if r.jitter > 0.0 then
        d *. (1.0 -. r.jitter *. Des.Rng.float c.retry_rngs.(client) 1.0)
      else d

(* The observed side of an outcome: the driver metric, then the request's
   span and causal trace are closed. *)
let finish_instr p ~now ~tag =
  match p.p_inst with
  | None -> ()
  | Some (i, span, trace) ->
      if tag = 0 then begin
        Obs.Metrics.incr i.i_commit;
        Obs.Metrics.observe i.i_lat (now -. p.p_first_sent)
      end
      else
        Obs.Metrics.incr
          (match tag with 1 -> i.i_rej | 2 -> i.i_unavail | 3 -> i.i_shed | _ -> i.i_timeout);
      let outcome = cls_name tag in
      Obs.Trace_log.finish i.i_sink.Obs.Sink.log ~args:[ ("outcome", outcome) ] span;
      Obs.Trace_log.record i.i_sink.Obs.Sink.log (Completed { trace; outcome; ts = now })

(* A request's one counted outcome. *)
let terminal c p ~now ~tag =
  let acc = c.acc and request = p.p_request in
  let client = request.site in
  let lat = now -. p.p_first_sent in
  count acc client ~tag ~lat ~time_ms:(now -. c.t0);
  if acc.n_phases > 0 then begin
    (* Retry attempts share [first_sent], so a whole request buckets into
       the phase that originated it. *)
    let ph = phase_of c p in
    if tag = 0 then begin
      acc.ph_committed.(client).(ph) <- acc.ph_committed.(client).(ph) + 1;
      tag_phase acc client ph
    end
    else acc.ph_aborted.(client).(ph) <- acc.ph_aborted.(client).(ph) + 1
  end;
  if c.spec.track_entities then log_reply acc.replies.(client) request.entity tag;
  (match c.spec.slo with
  | Some _ when tag = 0 ->
      Obs.Slo.Feed.commit c.slo_feeds.(client) ~start_ms:c.t0 ~now_ms:now ~latency_ms:lat
  | Some _ ->
      Obs.Slo.Feed.abort c.slo_feeds.(client) ~cls:(cls_name tag) ~start_ms:c.t0
        ~now_ms:now
  | None -> ());
  finish_instr p ~now ~tag

(* Where a client's send is due: its arrival at the system
   ({!Systems.facade.arrival_ms}). *)
let arrival c client ~issue_ms =
  c.t_system.Systems.arrival_ms ~region:c.spec.client_regions.(client) ~issue_ms

(* A send's bookkeeping runs at its arrival and is stamped with its issue
   time [issue_ms]: the first send, the deadline, the span and the causal
   root all date from when the client sent. A stream request's release is
   skipped on the tokens the client holds at the arrival. *)
let rec issue c ~synthetic ~issue_ms (request : Trace.Workload.request) =
  let spec = c.spec in
  let client = request.site in
  let engine = c.engines.(client) in
  let skip_release =
    (not synthetic)
    && request.kind = Trace.Workload.Release
    && (c.outstanding.(client) < request.amount || spec.grant_driven_release_ms <> None)
  in
  if
    request.time_ms < c.cutoffs.(client)
    && request.time_ms <= spec.duration_ms
    && not skip_release
  then begin
    let first_sent = issue_ms in
    let deadline =
      if spec.deadline_budget_ms = infinity then infinity
      else first_sent +. spec.deadline_budget_ms
    in
    (* One span and one causal root per request: every retry attempt runs
       under the same trace, so [explain] shows them as extra service legs
       on one root, closed by a single terminal Completed. *)
    let inst =
      match c.instrument with
      | None -> None
      | Some i ->
          let span =
            Obs.Trace_log.start i.i_sink.Obs.Sink.log ~cat:"request"
              ~tid:(client_tid client) ~ts:first_sent (span_name request.kind)
          in
          let trace = Des.Engine.fresh_id engine in
          let kind = span_name request.kind and entity = request.entity in
          Obs.Trace_log.record i.i_sink.Obs.Sink.log
            (Submitted { trace; client; kind; entity; ts = first_sent });
          Some (i, span, trace)
    in
    let p_system = to_request ~t_system:c.t_system ~deadline_ms:deadline request in
    attempt c
      { p_request = request; p_system; p_first_sent = first_sent; p_inst = inst;
        p_attempt = 0; p_settled = true; p_sent_at = first_sent }
  end

(* Attempt [p.p_attempt + 1], sent at [p.p_sent_at], at its arrival. *)
and attempt c p =
  let acc = c.acc and client = p.p_request.site in
  let engine = c.engines.(client) in
  let n = p.p_attempt + 1 in
  p.p_attempt <- n;
  p.p_settled <- false;
  acc.submitted.(client) <- acc.submitted.(client) + 1;
  if n > 1 then begin
    acc.retries.(client) <- acc.retries.(client) + 1;
    match p.p_inst with Some (i, _, _) -> Obs.Metrics.incr i.i_retry | None -> ()
  end;
  (* With a retry policy and a finite client timeout, the client abandons
     the attempt at the timeout instead of waiting for a reply that may
     never come — which is exactly what breeds a retry storm: the server
     may still be working on the original. The entry is pushed before the
     attempt is submitted, so it takes its place in the tie order first:
     a reply due exactly at the deadline runs after the timeout. Pushes
     follow arrivals, and sends from different sources may cross in
     flight (an acquire overtaking a release sent just before it), so a
     deadline below the line's last is pushed at the last. *)
  if Array.length c.timeouts > 0 then begin
    let line = c.timeouts.(client) in
    Des.Engine.line_push line
      ~time_ms:
        (Float.max (p.p_sent_at +. c.spec.client_timeout_ms) (Des.Engine.line_last line))
      (p, n)
  end;
  let reply response = on_reply c p n response in
  let region = c.spec.client_regions.(client) in
  c.t_system.Systems.arrive ~region ~issue_ms:p.p_sent_at;
  match p.p_inst with
  | None -> c.t_system.Systems.submit ~region p.p_system ~reply
  | Some (_, _, trace) ->
      (* Root of the causal trace: everything the system does on this
         request's behalf (hops, queueing, protocol phases) inherits the
         context through the engine's ambient propagation. *)
      Des.Engine.with_context engine (Des.Trace_context.root ~trace) (fun () ->
          c.t_system.Systems.submit ~region p.p_system ~reply)

and retry_after c p ~completed =
  let client = p.p_request.site in
  let engine = c.engines.(client) in
  let issue_ms = Des.Engine.now engine +. backoff_ms c client ~completed in
  Des.Engine.schedule_at engine
    ~time_ms:(arrival c client ~issue_ms)
    (fun () ->
      (* The client may have crashed while backing off. *)
      if issue_ms -. c.t0 < c.cutoffs.(client) then begin
        p.p_sent_at <- issue_ms;
        attempt c p
      end)

(* Attempt [n] reached its deadline unsettled (its timeout line's
   liveness test). Timed-out releases never retry (at-most-once: the
   original may have been applied late, and a doubled release mints
   tokens). *)
and on_timeout c (p, n) =
  p.p_settled <- true;
  let client = p.p_request.site in
  let now = Des.Engine.now c.engines.(client) in
  if now -. c.t0 >= c.cutoffs.(client) then ()
  else if n < max_attempts c.spec && p.p_request.kind <> Trace.Workload.Release then
    retry_after c p ~completed:n
  else terminal c p ~now ~tag:4

and on_reply c p n response =
  let acc = c.acc and request = p.p_request in
  let client = request.site in
  let engine = c.engines.(client) in
  let now = Des.Engine.now engine in
  acc.replied.(client) <- acc.replied.(client) + 1;
  (* Token bookkeeping runs on every reply, even superseded ones: a grant
     that arrives after the client gave up still moved real tokens, and
     grant-driven releases must return them. *)
  hold c.outstanding request response;
  (* The release is sent a constant lifetime after the grant. *)
  (match (c.spec.grant_driven_release_ms, request.kind, response) with
  | Some lifetime_ms, Trace.Workload.Acquire, Samya.Types.Granted ->
      (* Arrivals from the line keep its order: a leg that would overtake
         the line's last arrival lands with it. *)
      let issue_ms = now +. lifetime_ms in
      let line = c.releases.(client) in
      stamps_push c.release_issues.(client) issue_ms;
      Des.Engine.line_push line
        ~time_ms:(Float.max (arrival c client ~issue_ms) (Des.Engine.line_last line))
        request
  | _ -> ());
  if n = p.p_attempt && not p.p_settled then begin
    p.p_settled <- true;
    let tag = tag_of_response response in
    if now -. c.t0 >= c.cutoffs.(client) then
      (* Crashed client: the reply is discarded for accounting, but the
         observability story still closes the span/trace (the system did
         do the work). *)
      finish_instr p ~now ~tag
    else if now -. p.p_sent_at > c.spec.client_timeout_ms then
      (* Late reply with no timeout line (no retry policy): the client
         had already given up — attribute the request as a timeout instead
         of letting it silently vanish from every outcome bucket. *)
      terminal c p ~now ~tag:4
    else if tag = 3 && n < max_attempts c.spec then retry_after c p ~completed:n
    else terminal c p ~now ~tag
  end

(* Fill the lines' free slots. *)
let no_request =
  { Trace.Workload.time_ms = 0.0; site = 0; kind = Trace.Workload.Read; amount = 0; entity = "" }

let no_attempt =
  ( {
      p_request = no_request;
      p_system = Samya.Types.Read { entity = ""; deadline_ms = infinity };
      p_first_sent = 0.0;
      p_inst = None;
      p_attempt = 0;
      p_settled = true;
      p_sent_at = 0.0;
    },
    0 )

let run ~(t_system : Systems.facade) spec =
  validate_spec spec;
  let n_clients = Array.length spec.client_regions in
  let engines = Array.map t_system.Systems.sched_region spec.client_regions in
  let t0 = t_system.Systems.now () in
  let n_phases =
    if Array.length spec.phases = 0 then 0 else Array.length spec.phases + 1
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
  (* Per-client jitter streams, created only when a policy actually draws
     from them: a jitterless run consumes no randomness at all. Each
     client draws from its own stream on its own lane, so the schedule is
     a function of the simulation alone, never of the domain count. *)
  let retry_rngs =
    match spec.retry with
    | Some r when r.jitter > 0.0 -> Array.init n_clients (Des.Rng.stream r.jitter_seed)
    | _ -> [||]
  in
  let acc =
    acc_create ~n_phases ~track_entities:spec.track_entities ~n_clients
      ~window_ms:spec.window_ms ()
  in
  let outstanding = Array.make n_clients 0 in
  let c =
    {
      spec; t_system; engines; t0; acc; cutoffs; outstanding; retry_rngs; instrument;
      slo_feeds; timeouts = [||]; releases = [||]; release_issues = [||];
    }
  in
  (* One timeout line per client, when attempts can time out. An entry
     whose attempt was settled or superseded is dead for good, so the line
     drops it without an event. *)
  (match spec.retry with
  | Some _ when spec.client_timeout_ms < infinity ->
      c.timeouts <-
        Array.map
          (fun engine ->
            Des.Engine.line engine ~dummy:no_attempt
              ~live:(fun (p, n) -> n = p.p_attempt && not p.p_settled)
              (on_timeout c))
          engines
  | _ -> ());
  (* A grant-driven release: these tokens are held by construction. *)
  if spec.grant_driven_release_ms <> None then begin
    c.release_issues <- Array.map (fun _ -> stamps ()) engines;
    c.releases <-
      Array.mapi
        (fun client engine ->
          Des.Engine.line engine ~dummy:no_request ~live:(fun _ -> true)
            (fun (granted : Trace.Workload.request) ->
              issue c ~synthetic:true
                ~issue_ms:(stamps_pop c.release_issues.(client))
                { granted with kind = Trace.Workload.Release; time_ms = 0.0 }))
        engines
  end;
  (* Open-loop replay: one chain per client on the client's own lane, so
     a lane only ever schedules onto itself and consecutive arrivals never
     form a cross-lane dependency. Each chain is one closure that issues
     its client's next request ([first], then [next]) at its arrival and
     schedules the one after, keeping the event heap small even for
     million-request streams. The next arrival is scheduled from this one,
     so the engine's clamp to its clock keeps the chain's arrivals in
     order. *)
  let first = Array.make n_clients (-1) in
  let next = Array.make (Array.length spec.requests) (-1) in
  for i = Array.length spec.requests - 1 downto 0 do
    let client = spec.requests.(i).Trace.Workload.site in
    next.(i) <- first.(client);
    first.(client) <- i
  done;
  Array.iteri
    (fun client first ->
      let engine = engines.(client) in
      let cur = ref first in
      let rec schedule_next () =
        let i = !cur in
        if i >= 0 && spec.requests.(i).Trace.Workload.time_ms <= spec.duration_ms then
          Des.Engine.schedule_at engine
            ~time_ms:
              (arrival c client ~issue_ms:(t0 +. spec.requests.(i).Trace.Workload.time_ms))
            dispatch
      and dispatch () =
        let i = !cur in
        cur := next.(i);
        issue c ~synthetic:false ~issue_ms:(t0 +. spec.requests.(i).Trace.Workload.time_ms)
          spec.requests.(i);
        schedule_next ()
      in
      schedule_next ())
    first;
  t_system.Systems.run_until (t0 +. spec.duration_ms +. spec.drain_ms);
  (match spec.slo with
  | Some slo ->
      (* Evaluate now, so breaches reach the flight recorder before anyone
         dumps it; the eventual [report] counts nothing twice. *)
      Array.iter (Obs.Slo.absorb slo) slo_feeds;
      Obs.Slo.flush slo
  | None -> ());
  acc_result c.acc ~duration_ms:spec.duration_ms

let no_outcome =
  {
    e_committed = 0;
    e_rejected = 0;
    e_unavailable = 0;
    e_shed = 0;
    e_latency_sum_ms = 0.0;
    e_latency_max_ms = 0.0;
  }

let add_stats a b =
  {
    e_committed = a.e_committed + b.e_committed;
    e_rejected = a.e_rejected + b.e_rejected;
    e_unavailable = a.e_unavailable + b.e_unavailable;
    e_shed = a.e_shed + b.e_shed;
    e_latency_sum_ms = a.e_latency_sum_ms +. b.e_latency_sum_ms;
    e_latency_max_ms =
      (if b.e_latency_max_ms > a.e_latency_max_ms then b.e_latency_max_ms
       else a.e_latency_max_ms);
  }

let find_stats tbl entity = Option.value (Hashtbl.find_opt tbl entity) ~default:no_outcome

(* One client's log in reply order. Each commit takes the next of the
   client's latency samples, named or not; unnamed runs are dropped. *)
let fold_log l =
  let slot = Hashtbl.create 16 in
  let k = ref 0 in
  for run = 0 to l.n_runs - 1 do
    let entity = l.names.(run) in
    let stop = if run + 1 < l.n_runs then l.starts.(run + 1) else l.n_tags in
    let e = ref (find_stats slot entity) in
    for i = l.starts.(run) to stop - 1 do
      let reply =
        match Char.code (Bytes.get l.tags i) with
        | 0 ->
            let lat = Stats.Sample_set.get l.lat !k in
            incr k;
            {
              no_outcome with
              e_committed = 1;
              e_latency_sum_ms = lat;
              e_latency_max_ms = lat;
            }
        | 1 -> { no_outcome with e_rejected = 1 }
        | 2 -> { no_outcome with e_unavailable = 1 }
        | 3 -> { no_outcome with e_shed = 1 }
        | _ -> no_outcome
      in
      e := add_stats !e reply
    done;
    if entity <> "" then Hashtbl.replace slot entity !e
  done;
  slot

(* Slots merge in slot order, so each entity's latency sum adds the
   clients' sums in client order: the same floats at any domain count. *)
let by_entity (result : result) =
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      Hashtbl.iter
        (fun entity e ->
          Hashtbl.replace merged entity (add_stats (find_stats merged entity) e))
        (fold_log l))
    result.reply_logs;
  Hashtbl.fold (fun entity e l -> (entity, e) :: l) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
  (* A dropped request (a shed transaction never replies) must not kill
     its worker: a watchdog moves it on after a timeout. The timeout is
     constant, so each client's watchdogs form one line, carrying each
     request's settled flag; a reply only sets the flag. *)
  let resume = ref (fun (_ : int) -> ()) in
  let watchdogs =
    Array.mapi
      (fun client engine ->
        Des.Engine.line engine ~dummy:(ref true)
          ~live:(fun settled -> not !settled)
          (fun settled ->
            settled := true;
            no_reply.(client) <- no_reply.(client) + 1;
            !resume client))
      engines
  in
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
            let settled = ref false in
            Des.Engine.line_push watchdogs.(client) ~time_ms:(sent_at +. 5_000.0) settled;
            let reply response =
              if not !settled then begin
                settled := true;
                let now = Des.Engine.now engine in
                hold outstanding request response;
                let tag = tag_of_response response in
                if tag > 0 || now -. t0 <= duration_ms then
                  count acc client ~tag ~lat:(now -. sent_at) ~time_ms:(now -. t0);
                worker client
              end
            in
            t_system.Systems.submit ~region:client_regions.(client)
              (to_request ~t_system ~deadline_ms:infinity request)
              ~reply
          end
    end
  in
  resume := worker;
  Array.iteri
    (fun client _ ->
      for _ = 1 to workers_per_client do
        worker client
      done)
    client_regions;
  t_system.Systems.run_until (t0 +. duration_ms +. 10_000.0);
  let result = acc_result acc ~duration_ms in
  { result with no_reply = Array.fold_left ( + ) 0 no_reply }
