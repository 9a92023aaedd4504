type kind = Config.Controller.mechanism =
  | Escrow
  | Borrow
  | Redistribute

let kind_name = Config.Controller.mechanism_name

type verdict = Park of string | Refuse

type outcome = {
  o_kind : kind;
  o_satisfied : bool;
  o_obtained : int;
  o_wait_ms : float;
}

type t = {
  kind : kind;
  try_acquire : Entity_state.t -> amount:int -> verdict;
  engage : Entity_state.t -> unit;
  replenish_hint : Entity_state.t -> amount:int -> int;
  cost_estimate : unit -> float;
  note_cost : float -> unit;
}

(* Shared cost model: an EWMA of observed engagement latencies, seeded
   with a prior so a mechanism that has never run still ranks sensibly. *)
let ewma ~seed =
  let cost = ref seed in
  let estimate () = !cost in
  let note ms = cost := (0.8 *. !cost) +. (0.2 *. ms) in
  (estimate, note)

(* ------------------------------------------------------------------ *)
(* Escrow: serve within the local pool only. A shortfall has, by
   definition, already exhausted the headroom — refuse instantly, no
   tokens move, no WAN traffic. *)

let escrow () =
  {
    kind = Escrow;
    try_acquire = (fun _ ~amount:_ -> Refuse);
    engage = (fun _ -> ());
    replenish_hint = (fun _ ~amount:_ -> 0);
    cost_estimate = (fun () -> 0.0);
    note_cost = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Peer borrowing: the demarcation baseline's protocol lifted into a
   Samya-native mechanism. Ask peers in proximity order for the queued
   shortfall plus a quantum; tokens move directly between site ledgers
   (one one-way message each direction, no consensus round). Requests
   park behind the conversation exactly as they do behind a
   redistribution. *)

type borrow_deps = {
  bd_engine : Des.Engine.t;
  bd_site : int;
  bd_peers : int list;  (* proximity order, self excluded *)
  bd_quantum : int;
  bd_patience_ms : float;
  bd_alive : unit -> bool;
  bd_send : dst:int -> entity:Types.entity -> needed:int -> unit;
  bd_obs : Obs.Sink.port;
  mutable bd_drain : Entity_state.t -> satisfied:bool -> unit;
      (* Request_handler.drain_queue, wired after the handler exists *)
  mutable bd_on_finish : Entity_state.t -> outcome -> unit;
      (* the controller's signal feed, wired after the controller exists *)
}

let borrow_deps ~engine ~site_id ~peers ~quantum ~patience_ms ~alive ~send
    ?(obs = Obs.Sink.port ()) () =
  {
    bd_engine = engine;
    bd_site = site_id;
    bd_peers = peers;
    bd_quantum = quantum;
    bd_patience_ms = patience_ms;
    bd_alive = alive;
    bd_send = send;
    bd_obs = obs;
    bd_drain = (fun _ ~satisfied:_ -> ());
    bd_on_finish = (fun _ _ -> ());
  }

let set_borrow_drain deps drain = deps.bd_drain <- drain
let set_borrow_on_finish deps f = deps.bd_on_finish <- f

let queued_acquire_total (ctx : Entity_state.t) =
  Queue.fold
    (fun acc (request, _, _, _) ->
      match request with
      | Types.Acquire { amount; _ } -> acc + amount
      | _ -> acc)
    0 ctx.Entity_state.queue

(* What a borrow still needs: the queued acquires the local pool cannot
   cover. Recomputed before every ask — releases and grants that landed
   meanwhile shrink it, and once they have served the whole queue the
   borrow finishes satisfied. *)
let borrow_needed (ctx : Entity_state.t) =
  queued_acquire_total ctx - max 0 ctx.Entity_state.core.Entity_map.tokens_left

(* Lender sizing (the demarcation rule): cover the asker's shortfall plus
   a quantum so one grant buys a little future demand, never more than
   the lender's own pool. *)
let grant_for ~quantum ~tokens_left ~needed =
  min (max 0 tokens_left) (needed + quantum)

let finish_borrow deps (ctx : Entity_state.t) (b : Entity_state.borrow)
    ~satisfied =
  (match b.Entity_state.b_patience with
  | Some timer -> Des.Engine.cancel timer
  | None -> ());
  b.Entity_state.b_patience <- None;
  ctx.Entity_state.borrow <- None;
  let now = Des.Engine.now deps.bd_engine in
  (* The conversation appears on the triggering request's causal timeline
     as a protocol phase, so `explain` attributes the wait to the
     mechanism (component protocol.mech.borrow). *)
  (match Obs.Sink.tap deps.bd_obs with
  | None -> ()
  | Some sink ->
      if not (Des.Trace_context.is_none b.Entity_state.b_ctx) then
        Obs.Trace_log.record sink.Obs.Sink.log
          (Phase
             {
               trace = b.Entity_state.b_ctx.Des.Trace_context.trace;
               site = deps.bd_site;
               name = "mech.borrow";
               t0 = b.Entity_state.b_t0;
               t1 = now;
             }));
  deps.bd_on_finish ctx
    {
      o_kind = Borrow;
      o_satisfied = satisfied;
      o_obtained = b.Entity_state.b_obtained;
      o_wait_ms = now -. b.Entity_state.b_t0;
    };
  deps.bd_drain ctx ~satisfied

let ask_next deps (ctx : Entity_state.t) (b : Entity_state.borrow) =
  let needed = borrow_needed ctx in
  if needed <= 0 then finish_borrow deps ctx b ~satisfied:true
  else
    match b.Entity_state.b_to_ask with
    | [] -> finish_borrow deps ctx b ~satisfied:false
    | peer :: rest ->
        b.Entity_state.b_to_ask <- rest;
        deps.bd_send ~dst:peer ~entity:(Entity_state.entity ctx) ~needed;
        b.Entity_state.b_patience <-
          Some
            (Des.Engine.timer ~label:"samya.borrow.patience" deps.bd_engine
               ~delay_ms:deps.bd_patience_ms (fun () ->
                 if deps.bd_alive () then
                   (* Give up on the silent peer (crashed, partitioned, or
                      its grant was dropped): settle for what arrived. *)
                   match ctx.Entity_state.borrow with
                   | Some b' when b' == b ->
                       finish_borrow deps ctx b
                         ~satisfied:(borrow_needed ctx <= 0)
                   | Some _ | None -> ()))

(* A grant landed: bank the tokens, serve the queue's fitting prefix from
   them (the drain serves no more while the conversation is live), then
   either finish (covered) or walk to the next peer. Tokens from a late
   grant (after the conversation finished or died with a crash) still
   land in the ledger — conservation does not depend on the conversation
   being alive. *)
let on_grant deps (ctx : Entity_state.t) ~tokens =
  ctx.Entity_state.core.Entity_map.tokens_left <-
    ctx.Entity_state.core.Entity_map.tokens_left + tokens;
  match ctx.Entity_state.borrow with
  | None -> ()
  | Some b ->
      b.Entity_state.b_obtained <- b.Entity_state.b_obtained + tokens;
      (match b.Entity_state.b_patience with
      | Some timer -> Des.Engine.cancel timer
      | None -> ());
      b.Entity_state.b_patience <- None;
      deps.bd_drain ctx ~satisfied:true;
      ask_next deps ctx b

let borrow deps =
  let cost_estimate, note_cost = ewma ~seed:60.0 in
  {
    kind = Borrow;
    try_acquire =
      (fun ctx ~amount:_ ->
        match ctx.Entity_state.borrow with
        | Some _ -> Park "borrow" (* join the in-flight conversation *)
        | None ->
            if deps.bd_peers = [] then Refuse
            else begin
              ctx.Entity_state.borrow <-
                Some
                  {
                    Entity_state.b_to_ask = deps.bd_peers;
                    b_patience = None;
                    b_obtained = 0;
                    b_ctx = Des.Engine.current_context deps.bd_engine;
                    b_t0 = Des.Engine.now deps.bd_engine;
                  };
              Park "borrow"
            end);
    engage =
      (fun ctx ->
        (* Only a conversation with no ask outstanding needs the first
           ask fired; joins see the armed patience timer and no-op. The
           triggering request is already parked, so [borrow_needed]
           counts it. *)
        match ctx.Entity_state.borrow with
        | Some b when b.Entity_state.b_patience = None -> ask_next deps ctx b
        | Some _ | None -> ());
    replenish_hint =
      (fun ctx ~amount ->
        max amount (borrow_needed ctx) + deps.bd_quantum);
    cost_estimate;
    note_cost;
  }

(* ------------------------------------------------------------------ *)
(* Avantan redistribution: the paper's reactive consensus path (Equation
   5). Famine backoff and breaker gate the trigger, the prediction module
   sizes the ask. *)

let redistribute ~now ~reactive_ok ~reactive_wanted ~trigger =
  let cost_estimate, note_cost = ewma ~seed:400.0 in
  {
    kind = Redistribute;
    try_acquire =
      (fun ctx ~amount ->
        if Entity_state.participating ctx then Park "redistribution"
        else if reactive_ok ctx then begin
          let wanted = reactive_wanted ctx ~amount in
          ctx.Entity_state.core.Entity_map.tokens_wanted <-
            max ctx.Entity_state.core.Entity_map.tokens_wanted wanted;
          ctx.Entity_state.last_redistribution_ms <- now ();
          Park "redistribution"
        end
        else Refuse);
    engage =
      (fun ctx ->
        if not (Entity_state.participating ctx) then trigger ctx);
    replenish_hint = (fun ctx ~amount -> reactive_wanted ctx ~amount);
    cost_estimate;
    note_cost;
  }
