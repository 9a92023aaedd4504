type kind = Acquire | Release | Read

type request = {
  time_ms : float;
  site : int;
  kind : kind;
  amount : int;
  entity : string;
}

let compare_time a b = compare a.time_ms b.time_ms

let of_trace ~rng ~trace ~site ?(start_interval = 0) ?intervals ?(amount = 1) () =
  let total = Azure_trace.length trace in
  let intervals = Option.value intervals ~default:(total - start_interval) in
  if start_interval < 0 || start_interval + intervals > total then
    invalid_arg "Workload.of_trace: interval range out of bounds";
  let interval_ms = trace.Azure_trace.interval_s *. 1000.0 in
  let out = ref [] in
  (* Clients never release more than they acquired (§3.2): deletions are
     capped by the running balance of the emitted stream, which also
     absorbs the wrap-around of phase-shifted traces. *)
  let balance = ref 0 in
  for i = 0 to intervals - 1 do
    let idx = start_interval + i in
    let base = float_of_int i *. interval_ms in
    let emit kind count =
      for _ = 1 to count do
        let time_ms = base +. Des.Rng.float rng interval_ms in
        out := { time_ms; site; kind; amount; entity = "" } :: !out
      done
    in
    let created = int_of_float trace.Azure_trace.creations.(idx) in
    let deleted = min (int_of_float trace.Azure_trace.deletions.(idx)) (!balance + created) in
    balance := !balance + created - deleted;
    emit Acquire created;
    emit Release deleted
  done;
  let arr = Array.of_list !out in
  Array.sort compare_time arr;
  arr

(* A growable array of requests in generation order, grown by doubling:
   the generators emit in time order, so [contents] is the stream. *)
type buffer = { mutable items : request array; mutable len : int }

let buffer () = { items = [||]; len = 0 }

let push b r =
  if b.len = Array.length b.items then begin
    let items = Array.make (max 1024 (2 * b.len)) r in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- r;
  b.len <- b.len + 1

let contents b = Array.sub b.items 0 b.len

(* Piecewise-Poisson 1-token Acquires on one entity: segments
   [(until_ms, rate_per_s, home_affinity)] one after another from 0, all
   drawn from the same rng. Each segment ends the thinning clock at its
   boundary: the next segment's first gap is drawn fresh at its own
   rate. *)
let segments ~rng ~entity ~home ~n_clients list =
  let b = buffer () in
  let t = ref 0.0 in
  List.iter
    (fun (until_ms, rate_per_s, home_affinity) ->
      let rate = rate_per_s /. 1000.0 (* per ms *) in
      let continue = ref true in
      while !continue do
        let next = !t +. Des.Rng.exponential rng ~rate in
        if next > until_ms then begin
          t := until_ms;
          continue := false
        end
        else begin
          t := next;
          let site =
            if Des.Rng.bool rng home_affinity then home
            else Des.Rng.int rng n_clients
          in
          push b { time_ms = !t; site; kind = Acquire; amount = 1; entity }
        end
      done)
    list;
  contents b

let gateway ~rng ~zipf ~key_name ~key_home ~n_clients ~rate_per_s ~duration_ms
    ?(home_affinity = 0.8) ?(read_ratio = 0.05) () =
  if n_clients < 1 then invalid_arg "Workload.gateway: n_clients must be >= 1";
  if rate_per_s <= 0.0 then invalid_arg "Workload.gateway: rate must be positive";
  if home_affinity < 0.0 || home_affinity > 1.0 then
    invalid_arg "Workload.gateway: home_affinity outside [0, 1]";
  if read_ratio < 0.0 || read_ratio > 1.0 then
    invalid_arg "Workload.gateway: read_ratio outside [0, 1]";
  (* Open-loop Poisson arrivals over the whole fleet; each arrival draws
     its key from the Zipfian popularity, then its issuing client — the
     key's home region with probability [home_affinity] (the "EU tenant
     calls the EU gateway" skew), uniform otherwise. Releases are not
     emitted: gateway tokens return via the driver's grant-driven
     releases, whose lifetime models the rate-limit window. *)
  let b = buffer () in
  let t = ref 0.0 in
  let rate = rate_per_s /. 1000.0 (* per ms *) in
  let continue = ref true in
  while !continue do
    t := !t +. Des.Rng.exponential rng ~rate;
    if !t > duration_ms then continue := false
    else begin
      let key = Zipf.sample zipf rng in
      let home = key_home key in
      let site =
        if Des.Rng.bool rng home_affinity then home
        else Des.Rng.int rng n_clients
      in
      let kind = if Des.Rng.bool rng read_ratio then Read else Acquire in
      push b { time_ms = !t; site; kind; amount = 1; entity = key_name key }
    end
  done;
  contents b

let flash_sale ~rng ~entity ~home ~n_clients ~base_rate_per_s ~spike_rate_per_s
    ~spike_start_ms ~spike_end_ms ~duration_ms ?(home_affinity = 0.9) () =
  if n_clients < 1 then invalid_arg "Workload.flash_sale: n_clients must be >= 1";
  if home < 0 || home >= n_clients then
    invalid_arg "Workload.flash_sale: home outside [0, n_clients)";
  if not (base_rate_per_s > 0.0) then
    invalid_arg "Workload.flash_sale: base rate must be positive";
  if not (spike_rate_per_s > 0.0) then
    invalid_arg "Workload.flash_sale: spike rate must be positive";
  if
    not
      (0.0 <= spike_start_ms
      && spike_start_ms <= spike_end_ms
      && spike_end_ms <= duration_ms)
  then invalid_arg "Workload.flash_sale: need 0 <= start <= end <= duration";
  if home_affinity < 0.0 || home_affinity > 1.0 then
    invalid_arg "Workload.flash_sale: home_affinity outside [0, 1]";
  (* Piecewise-Poisson arrivals on one entity: base rate, then the spike,
     then base again — three sequential segments drawn from the same rng
     so the stream is one deterministic sequence. Every arrival is a
     1-token Acquire (flash-sale checkouts); releases come back through
     the driver's grant-driven lifetimes. *)
  segments ~rng ~entity ~home ~n_clients
    [
      (spike_start_ms, base_rate_per_s, home_affinity);
      (spike_end_ms, spike_rate_per_s, home_affinity);
      (duration_ms, base_rate_per_s, home_affinity);
    ]

type ramp_phase = {
  until_ms : float;  (** segment end (absolute); segments are contiguous *)
  rate_per_s : float;
  home_affinity : float;
}

let skew_ramp ~rng ~entity ~home ~n_clients ~phases () =
  if n_clients < 1 then invalid_arg "Workload.skew_ramp: n_clients must be >= 1";
  if home < 0 || home >= n_clients then
    invalid_arg "Workload.skew_ramp: home outside [0, n_clients)";
  if phases = [] then invalid_arg "Workload.skew_ramp: need at least one phase";
  ignore
    (List.fold_left
       (fun prev p ->
         if not (p.rate_per_s > 0.0) then
           invalid_arg "Workload.skew_ramp: rates must be positive";
         if p.home_affinity < 0.0 || p.home_affinity > 1.0 then
           invalid_arg "Workload.skew_ramp: home_affinity outside [0, 1]";
         if not (p.until_ms > prev) then
           invalid_arg "Workload.skew_ramp: phase ends must be strictly ascending";
         p.until_ms)
       0.0 phases);
  (* Piecewise-Poisson arrivals on one entity, each phase with its own
     rate and locality: the contention-controller experiment ramps a key
     from cold-and-uniform through moderate home skew into sustained
     global pressure. Every arrival is a 1-token Acquire; releases come
     back through the driver's grant-driven lifetimes. All phases draw
     from the same rng, so the stream is one deterministic sequence. *)
  segments ~rng ~entity ~home ~n_clients
    (List.map (fun p -> (p.until_ms, p.rate_per_s, p.home_affinity)) phases)

let merge streams =
  let arr = Array.concat streams in
  Array.sort compare_time arr;
  arr

let with_reads ~rng ~read_ratio stream =
  if read_ratio < 0.0 || read_ratio > 1.0 then
    invalid_arg "Workload.with_reads: ratio outside [0, 1]";
  Array.map
    (fun r -> if Des.Rng.bool rng read_ratio then { r with kind = Read } else r)
    stream

let duration_ms stream =
  let n = Array.length stream in
  if n = 0 then 0.0 else stream.(n - 1).time_ms

let count_kind stream kind =
  Array.fold_left (fun acc r -> if r.kind = kind then acc + 1 else acc) 0 stream
