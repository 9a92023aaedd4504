(* Parallel-in-time DES: one engine per lane (region), coordinated by a
   conservative lookahead window in the style of Chandy–Misra–Bryant.

   Invariant the whole design rests on: any event a lane schedules onto
   another lane lies at least [lookahead] virtual ms in the future. Then
   with [t_min] the earliest pending event across lanes, every event
   strictly below [horizon = t_min + lookahead] is already in its lane's
   queue — no in-flight cross message can land below it — so all lanes
   can drain their windows with no synchronization at all. Cross-lane
   messages produced during a window are buffered in single-writer
   channels and flushed at the barrier in a fixed (dst, src, append)
   order, so heap tie-break sequence numbers — and therefore the entire
   execution — are identical whether windows run on 1 or N domains.

   Barrier-aligned "global" events (fault injections: crashes,
   partitions, link edits) cap the horizon: the window runs strictly
   below their time, clocks advance to it, and the mutation executes
   alone between windows. Mid-window reads of that shared state (site
   liveness, partition groups) are therefore race-free and
   deterministic. *)

type channel = {
  mutable c_times : float array;
  mutable c_fns : (unit -> unit) array;
  mutable c_size : int;
}

let nop () = ()

let channel_create () = { c_times = [||]; c_fns = [||]; c_size = 0 }

let channel_push c ~time_ms f =
  if c.c_size = Array.length c.c_times then begin
    let capacity = max 16 (2 * Array.length c.c_times) in
    let times = Array.make capacity 0.0 in
    let fns = Array.make capacity nop in
    Array.blit c.c_times 0 times 0 c.c_size;
    Array.blit c.c_fns 0 fns 0 c.c_size;
    c.c_times <- times;
    c.c_fns <- fns
  end;
  c.c_times.(c.c_size) <- time_ms;
  c.c_fns.(c.c_size) <- f;
  c.c_size <- c.c_size + 1

type t = {
  engines : Engine.t array;
  lookahead : float;
  chans : channel array array; (* chans.(dst).(src): single writer = src lane *)
  globals : (unit -> unit) Pheap.t;
  workers : int; (* configured domains (1 = sequential windows) *)
  mutable in_window : bool;
  mutable horizon : float; (* lower bound for cross sends in this window *)
  mutable epoch : int; (* barriers passed; written only between windows *)
}

let create ?(seed = 42L) ?(workers = 1) ~lanes ~lookahead_ms () =
  if lanes < 1 then invalid_arg "Shard.create: lanes must be >= 1";
  if not (lookahead_ms > 0.0 && Float.is_finite lookahead_ms) then
    invalid_arg "Shard.create: lookahead must be positive and finite";
  let engines =
    Array.init lanes (fun i ->
        let engine = Engine.create ~seed:(Rng.stream_seed seed i) () in
        Engine.set_id_namespace engine ~base:i ~stride:lanes;
        engine)
  in
  {
    engines;
    lookahead = lookahead_ms;
    chans = Array.init lanes (fun _ -> Array.init lanes (fun _ -> channel_create ()));
    globals = Pheap.create ~dummy:ignore ();
    workers = max 1 workers;
    in_window = false;
    horizon = neg_infinity;
    epoch = 0;
  }

let lanes t = Array.length t.engines

let lookahead_ms t = t.lookahead

let engine t i = t.engines.(i)

let engines t = t.engines

let in_window t = t.in_window

let epoch t = t.epoch

(* The lane the calling domain is draining. Domain-local, so lanes that
   drain in parallel each see their own; -1 whenever no window is
   draining on this domain. *)
let executing = Domain.DLS.new_key (fun () -> -1)

let executing_lane () = Domain.DLS.get executing

(* Barrier semantics: all lane clocks agree between windows; [now] is the
   maximum so it is also meaningful before the first run (0.0) and after
   the last (until_ms). *)
let now t = Array.fold_left (fun acc e -> Float.max acc (Engine.now e)) 0.0 t.engines

let schedule_cross t ~src ~dst ~time_ms f =
  if t.in_window then begin
    if time_ms < t.horizon then
      invalid_arg
        (Printf.sprintf
           "Shard.schedule_cross: delivery at %.3f below the lookahead horizon %.3f"
           time_ms t.horizon);
    channel_push t.chans.(dst).(src) ~time_ms f
  end
  else Engine.schedule_at t.engines.(dst) ~time_ms f

let schedule_global t ~time_ms f =
  if t.in_window then invalid_arg "Shard.schedule_global: called inside a window";
  Pheap.push t.globals ~priority:time_ms f

(* ------------------------------------------------------------------ *)
(* Window machinery                                                     *)

let next_local t =
  Array.fold_left (fun acc e -> Float.min acc (Engine.next_due e)) infinity t.engines

let next_global t = if Pheap.is_empty t.globals then infinity else Pheap.min_key t.globals

(* Flush order is fixed — (dst ascending, src ascending, append order) —
   so the sequence numbers every delivery gets in its destination heap
   are a pure function of the simulation, not of domain scheduling. *)
let flush t =
  let k = Array.length t.engines in
  for dst = 0 to k - 1 do
    let row = t.chans.(dst) in
    let engine = t.engines.(dst) in
    for src = 0 to k - 1 do
      let c = row.(src) in
      for i = 0 to c.c_size - 1 do
        Engine.schedule_at engine ~time_ms:c.c_times.(i) c.c_fns.(i);
        c.c_fns.(i) <- nop
      done;
      c.c_size <- 0
    done
  done;
  t.epoch <- t.epoch + 1

let drain_lane t i ~limit ~inclusive =
  let engine = t.engines.(i) in
  Domain.DLS.set executing i;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set executing (-1))
    (fun () ->
      if inclusive then Engine.run engine ~until_ms:limit
      else Engine.run_before engine ~limit)

(* The worker fleet: persistent domains woken per window. Lanes are
   handed out through an atomic counter, so an idle domain steals the
   next un-drained lane; the caller participates too. The mutex
   hand-offs double as the memory barriers that publish channel buffers
   between lanes and the coordinator. *)
type fleet = {
  mu : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  next : int Atomic.t;
  mutable limit : float;
  mutable inclusive : bool;
  mutable generation : int;
  mutable pending : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
}

let rec fleet_drain t fl =
  let i = Atomic.fetch_and_add fl.next 1 in
  if i < Array.length t.engines then begin
    drain_lane t i ~limit:fl.limit ~inclusive:fl.inclusive;
    fleet_drain t fl
  end

let fleet_note_failure fl exn =
  Mutex.lock fl.mu;
  if fl.failure = None then fl.failure <- Some exn;
  Mutex.unlock fl.mu

let rec fleet_worker t fl my_generation =
  Mutex.lock fl.mu;
  while (not fl.stop) && fl.generation = my_generation do
    Condition.wait fl.work fl.mu
  done;
  let stop = fl.stop in
  let generation = fl.generation in
  Mutex.unlock fl.mu;
  if not stop then begin
    (try fleet_drain t fl with exn -> fleet_note_failure fl exn);
    Mutex.lock fl.mu;
    fl.pending <- fl.pending - 1;
    if fl.pending = 0 then Condition.broadcast fl.idle;
    Mutex.unlock fl.mu;
    fleet_worker t fl generation
  end

let fleet_create t n_workers =
  let fl =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      next = Atomic.make 0;
      limit = 0.0;
      inclusive = false;
      generation = 0;
      pending = 0;
      stop = false;
      failure = None;
      domains = [];
    }
  in
  fl.domains <- List.init n_workers (fun _ -> Domain.spawn (fun () -> fleet_worker t fl 0));
  fl

let fleet_shutdown fl =
  Mutex.lock fl.mu;
  fl.stop <- true;
  Condition.broadcast fl.work;
  Mutex.unlock fl.mu;
  List.iter Domain.join fl.domains;
  fl.domains <- []

let exec_window_fleet t fl ~limit ~inclusive =
  t.in_window <- true;
  Mutex.lock fl.mu;
  Atomic.set fl.next 0;
  fl.limit <- limit;
  fl.inclusive <- inclusive;
  fl.pending <- List.length fl.domains;
  fl.generation <- fl.generation + 1;
  Condition.broadcast fl.work;
  Mutex.unlock fl.mu;
  (try fleet_drain t fl with exn -> fleet_note_failure fl exn);
  Mutex.lock fl.mu;
  while fl.pending > 0 do
    Condition.wait fl.idle fl.mu
  done;
  let failure = fl.failure in
  fl.failure <- None;
  Mutex.unlock fl.mu;
  t.in_window <- false;
  match failure with Some exn -> raise exn | None -> ()

let exec_window_seq t ~limit ~inclusive =
  t.in_window <- true;
  Fun.protect
    ~finally:(fun () -> t.in_window <- false)
    (fun () ->
      for i = 0 to Array.length t.engines - 1 do
        drain_lane t i ~limit ~inclusive
      done)

let run t ~until_ms =
  let n_extra = min (t.workers - 1) (lanes t - 1) in
  let fl = if n_extra > 0 then Some (fleet_create t n_extra) else None in
  let exec ~limit ~inclusive =
    match fl with
    | Some fl -> exec_window_fleet t fl ~limit ~inclusive
    | None -> exec_window_seq t ~limit ~inclusive
  in
  Fun.protect
    ~finally:(fun () -> Option.iter fleet_shutdown fl)
    (fun () ->
      let rec loop () =
        let t_local = next_local t in
        let t_global = next_global t in
        if t_local > until_ms && t_global > until_ms then
          (* Done: events beyond the limit stay queued for a later run. *)
          Array.iter (fun e -> Engine.catch_up_to e ~time_ms:until_ms) t.engines
        else if t_local = infinity && t_global = infinity then
          (* Drained with no finite limit ([until_ms = infinity]): return,
             as [Engine.run] does, with the clocks where the last event
             left them. *)
          ()
        else begin
          let cap = Float.min (t_local +. t.lookahead) t_global in
          if cap > until_ms then begin
            (* Closing window: every remaining event at or below the limit
               is within one lookahead of it and no global intervenes, so
               the lanes can finish inclusively; cross messages they emit
               land strictly beyond [until_ms] and stay queued. *)
            t.horizon <- cap;
            exec ~limit:until_ms ~inclusive:true;
            flush t
          end
          else if t_global <= cap then begin
            (* A barrier-aligned mutation: drain strictly below it, agree
               on the clock, run the globals alone, go again. Globals due
               at the same instant run in scheduling order. *)
            t.horizon <- t_global;
            exec ~limit:t_global ~inclusive:false;
            flush t;
            Array.iter (fun e -> Engine.catch_up_to e ~time_ms:t_global) t.engines;
            Pheap.drain_to t.globals ~limit:t_global (fun _ f -> f ());
            loop ()
          end
          else begin
            (* Ordinary conservative window [*, t_local + lookahead). *)
            t.horizon <- cap;
            exec ~limit:cap ~inclusive:false;
            flush t;
            loop ()
          end
        end
      in
      loop ())
