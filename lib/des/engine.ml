(* The queue holds bare closures: a plain [schedule] costs one heap push and
   nothing else. Timers wrap their callback in a closure that consults a
   one-flag record, so cancellation needs no per-event bookkeeping on the
   hot path. *)

type tracer = {
  on_timer_fired : label:string -> armed_ms:float -> now_ms:float -> unit;
  on_timer_cancelled : label:string -> armed_ms:float -> now_ms:float -> unit;
  after_step : now_ms:float -> pending:int -> unit;
}

type t = {
  mutable clock : float;
  queue : (unit -> unit) Pheap.t;
  root_rng : Rng.t;
  mutable tracer : tracer option;
  mutable current : Trace_context.t;
  mutable next_id : int;
  mutable id_stride : int;
}

type timer = { mutable cancelled : bool }

let create ?(seed = 42L) () =
  {
    clock = 0.0;
    queue = Pheap.create ~dummy:ignore ();
    root_rng = Rng.create seed;
    tracer = None;
    current = Trace_context.none;
    next_id = 0;
    id_stride = 1;
  }

let set_tracer t tracer = t.tracer <- tracer

let now t = t.clock

let rng t = t.root_rng

let current_context t = t.current

let with_context t ctx f =
  let saved = t.current in
  t.current <- ctx;
  let r = f () in
  t.current <- saved;
  r

let fresh_id t =
  t.next_id <- t.next_id + t.id_stride;
  t.next_id

(* Lane [i] of a sharded run draws ids [base + k * stride] (stride = lane
   count), so the id spaces of the per-region engines are disjoint and
   each is deterministic on its own — trace/causal ids never collide
   across lanes. The default [base = 0, stride = 1] is the legacy 1, 2, …
   sequence. *)
let set_id_namespace t ~base ~stride =
  if base < 0 || stride < 1 then invalid_arg "Engine.set_id_namespace";
  t.next_id <- base;
  t.id_stride <- stride

(* The context check is a pointer compare against the unique [none]: when
   no trace is active the scheduling hot path pays one load and one branch
   and allocates nothing beyond the PR-1 shape. With a context active the
   closure is wrapped so the event inherits it ambiently — save/restore
   keeps nesting correct when a traced event fires inside [with_context]. *)
let schedule_at t ~time_ms f =
  let time_ms = if time_ms > t.clock then time_ms else t.clock in
  let f =
    if t.current == Trace_context.none then f
    else
      let ctx = t.current in
      fun () ->
        let saved = t.current in
        t.current <- ctx;
        f ();
        t.current <- saved
  in
  Pheap.push t.queue ~priority:time_ms f

let schedule t ~delay_ms f = schedule_at t ~time_ms:(t.clock +. Float.max 0.0 delay_ms) f

(* Unlabelled timers keep the lean PR-1 closure. A labelled timer armed
   under a tracer captures its label and arming time for the tracer's
   fire/cancel events; armed with none, it is an unlabelled timer. *)
let timer ?label t ~delay_ms f =
  let tm = { cancelled = false } in
  let time_ms = t.clock +. Float.max 0.0 delay_ms in
  (match (label, t.tracer) with
  | Some label, Some _ ->
      let armed_ms = t.clock in
      schedule_at t ~time_ms (fun () ->
          match t.tracer with
          | Some tr when tm.cancelled ->
              tr.on_timer_cancelled ~label ~armed_ms ~now_ms:t.clock
          | Some tr ->
              tr.on_timer_fired ~label ~armed_ms ~now_ms:t.clock;
              f ()
          | None -> if not tm.cancelled then f ())
  | None, _ | Some _, None ->
      schedule_at t ~time_ms (fun () -> if not tm.cancelled then f ()));
  tm

(* A line's entries wait in a ring (unboxed times and sequence numbers,
   payloads and captured contexts in two slot arrays); only the head is in
   the heap, pushed under the [(time, seq)] it reserved at [line_push], so
   it sorts against every other event exactly as a [schedule_at] made at
   that moment would. The heap value is the line's one [fire] closure,
   built at creation, so an entry allocates nothing of its own. *)
type 'a line = {
  l_engine : t;
  l_dummy : 'a;
  l_live : 'a -> bool;
  l_run : 'a -> unit;
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_values : 'a array;
  mutable l_ctxs : Trace_context.t array;
  mutable l_head : int;
  mutable l_len : int;
  mutable l_last : float;
  l_fire : unit -> unit;
}

(* Remove the head, resetting its slots so the line keeps its payload
   unreachable. *)
let line_drop l =
  let i = l.l_head in
  l.l_values.(i) <- l.l_dummy;
  l.l_ctxs.(i) <- Trace_context.none;
  l.l_head <- (if i + 1 = Array.length l.l_times then 0 else i + 1);
  l.l_len <- l.l_len - 1

(* Pop the head, drop the dead entries behind it (each would have been an
   event that does nothing), put the next live one (if any) in the heap,
   then run the popped one, if it is still live, under the context its
   push captured. *)
let line_fire l =
  let t = l.l_engine in
  let i = l.l_head in
  let v = l.l_values.(i) and ctx = l.l_ctxs.(i) in
  line_drop l;
  while l.l_len > 0 && not (l.l_live l.l_values.(l.l_head)) do
    line_drop l
  done;
  if l.l_len > 0 then begin
    let j = l.l_head in
    Pheap.push_reserved t.queue ~priority:l.l_times.(j) ~seq:l.l_seqs.(j) l.l_fire
  end;
  if not (l.l_live v) then ()
  else if ctx == Trace_context.none then l.l_run v
  else begin
    let saved = t.current in
    t.current <- ctx;
    l.l_run v;
    t.current <- saved
  end

let line t ~dummy ~live f =
  let rec l =
    {
      l_engine = t; l_dummy = dummy; l_live = live; l_run = f; l_times = [||];
      l_seqs = [||]; l_values = [||]; l_ctxs = [||]; l_head = 0; l_len = 0;
      l_last = neg_infinity; l_fire = (fun () -> line_fire l);
    }
  in
  l

let line_grow l =
  let cap = Array.length l.l_times in
  let cap' = max 16 (2 * cap) in
  let times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  let values = Array.make cap' l.l_dummy and ctxs = Array.make cap' Trace_context.none in
  for k = 0 to l.l_len - 1 do
    let j = (l.l_head + k) mod cap in
    times.(k) <- l.l_times.(j);
    seqs.(k) <- l.l_seqs.(j);
    values.(k) <- l.l_values.(j);
    ctxs.(k) <- l.l_ctxs.(j)
  done;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_values <- values;
  l.l_ctxs <- ctxs;
  l.l_head <- 0

let line_push l ~time_ms v =
  let t = l.l_engine in
  let time_ms = if time_ms > t.clock then time_ms else t.clock in
  if time_ms < l.l_last then
    invalid_arg
      (Printf.sprintf "Engine.line_push: time %g is below the line's last %g" time_ms
         l.l_last);
  l.l_last <- time_ms;
  let seq = Pheap.reserve t.queue in
  if l.l_len = Array.length l.l_times then line_grow l;
  let cap = Array.length l.l_times in
  let tail = if l.l_head + l.l_len >= cap then l.l_head + l.l_len - cap else l.l_head + l.l_len in
  l.l_times.(tail) <- time_ms;
  l.l_seqs.(tail) <- seq;
  l.l_values.(tail) <- v;
  l.l_ctxs.(tail) <- t.current;
  l.l_len <- l.l_len + 1;
  if l.l_len = 1 then Pheap.push_reserved t.queue ~priority:time_ms ~seq l.l_fire

let line_last l = l.l_last

let cancel tm = tm.cancelled <- true

let pending t = Pheap.length t.queue

let step t =
  if Pheap.is_empty t.queue then false
  else begin
    let time = Pheap.min_key t.queue in
    let fire = Pheap.pop_unsafe t.queue in
    if time > t.clock then t.clock <- time;
    fire ();
    (match t.tracer with
    | Some tr -> tr.after_step ~now_ms:t.clock ~pending:(Pheap.length t.queue)
    | None -> ());
    true
  end

let run ?until_ms t =
  match until_ms with
  | None -> while step t do () done
  | Some limit ->
      (match t.tracer with
      | None ->
          (* Batched drain: one root probe per event instead of the
             is_empty/min_key pair, and no per-event tracer check. The
             execution order is identical to the step loop. *)
          Pheap.drain_to t.queue ~limit (fun time fire ->
              if time > t.clock then t.clock <- time;
              fire ())
      | Some _ ->
          while (not (Pheap.is_empty t.queue)) && Pheap.min_key t.queue <= limit do
            ignore (step t)
          done);
      if t.clock < limit then t.clock <- limit

let run_for t d = run t ~until_ms:(t.clock +. d)

(* ------------------------------------------------------------------ *)
(* Windowed execution (the sharded-engine drain primitives)             *)

let next_due t = if Pheap.is_empty t.queue then infinity else Pheap.min_key t.queue

let run_before t ~limit =
  match t.tracer with
  | None ->
      Pheap.drain_below t.queue ~limit (fun time fire ->
          if time > t.clock then t.clock <- time;
          fire ())
  | Some _ ->
      while (not (Pheap.is_empty t.queue)) && Pheap.min_key t.queue < limit do
        ignore (step t)
      done

let catch_up_to t ~time_ms = if time_ms > t.clock then t.clock <- time_ms
