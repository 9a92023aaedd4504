(* Per-layer attribution of the simulator's wall time, measured from
   outside the library through its public hooks only: the engine tracer
   on every lane, the network tracer, a wrapping facade and the protocol
   event hook. Tracer callbacks are not thread-safe, so a probed run must
   drain its lanes on one domain (engine_jobs = 1).

   An installed engine tracer switches [Des.Engine.run_before] from the
   batched drain to the step loop, so the probed run is slower than an
   untraced one; its numbers attribute cost, they are not end-to-end
   results. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Event classes. Each executed event gets the class of the first hook
   that fired during it; an event no hook saw is [other]. The self time
   of an event is the wall time since the previous [after_step]. *)
let geonet_deliver = 0
let client_issue = 1
let client_reply = 2
let other = 3
let max_classes = 64

(* Spans timed around calls into the system, as self time. *)
let submit_span = 0
let reply_span = 1

type t = {
  mutable current : int;  (* class of the executing event; -1 = none yet *)
  last_step : float array;  (* [| clock at the previous after_step |] *)
  names : string array;
  mutable n_classes : int;
  timer_classes : (string, int) Hashtbl.t;
  events : int array;
  ns : float array;
  span_calls : int array;
  span_self_ns : float array;
  nested_ns : float array;  (* [| time of spans nested in the open one |] *)
  loop_ns : float array;  (* [| wall time inside the facade's run_until |] *)
  mutable led_decisions : int;
  mutable led_rounds : int;
}

let create () =
  let names = Array.make max_classes "" in
  names.(geonet_deliver) <- "geonet.deliver";
  names.(client_issue) <- "client.issue";
  names.(client_reply) <- "client.reply";
  names.(other) <- "other";
  {
    current = -1;
    last_step = [| now_ns () |];
    names;
    n_classes = 4;
    timer_classes = Hashtbl.create 8;
    events = Array.make max_classes 0;
    ns = Array.make max_classes 0.0;
    span_calls = [| 0; 0 |];
    span_self_ns = [| 0.0; 0.0 |];
    nested_ns = [| 0.0 |];
    loop_ns = [| 0.0 |];
    led_decisions = 0;
    led_rounds = 0;
  }

let mark t c = if t.current < 0 then t.current <- c

let timer_class t label =
  match Hashtbl.find_opt t.timer_classes label with
  | Some c -> c
  | None ->
      let c = if t.n_classes < max_classes then t.n_classes else other in
      if c <> other then begin
        t.names.(c) <- "timer." ^ label;
        t.n_classes <- c + 1
      end;
      Hashtbl.add t.timer_classes label c;
      c

let engine_tracer t =
  let timer ~label ~armed_ms:_ ~now_ms:_ = mark t (timer_class t label) in
  {
    Des.Engine.on_timer_fired = timer;
    on_timer_cancelled = timer;
    after_step =
      (fun ~now_ms:_ ~pending:_ ->
        let now = now_ns () in
        let c = if t.current < 0 then other else t.current in
        t.events.(c) <- t.events.(c) + 1;
        t.ns.(c) <- t.ns.(c) +. (now -. t.last_step.(0));
        t.last_step.(0) <- now;
        t.current <- -1);
  }

let network_tracer t =
  let deliver ~src:_ ~dst:_ ~sent_at:_ ~now_ms:_ = mark t geonet_deliver in
  {
    Geonet.Network.on_send = (fun ~src:_ ~dst:_ ~now_ms:_ -> ());
    on_deliver = deliver;
    on_drop = deliver;
  }

(* Self time of [f]: its duration minus that of spans nested inside it. *)
let span t i f =
  let start = now_ns () in
  let outer = t.nested_ns.(0) in
  t.nested_ns.(0) <- 0.0;
  let result = f () in
  let dt = now_ns () -. start in
  t.span_calls.(i) <- t.span_calls.(i) + 1;
  t.span_self_ns.(i) <- t.span_self_ns.(i) +. (dt -. t.nested_ns.(0));
  t.nested_ns.(0) <- outer +. dt;
  result

(* The facade seen by the driver: [submit] marks a client issue and is
   timed; the driver's reply callback marks a client reply and is timed;
   [run_until] bounds the event loop: the first event's self time counts
   from its entry, and the driver's own work before and after it is the
   rest of Driver.run. *)
let wrap t (system : Facade.t) =
  {
    system with
    Facade.run_until =
      (fun until_ms ->
        let start = now_ns () in
        t.last_step.(0) <- start;
        system.Facade.run_until until_ms;
        t.loop_ns.(0) <- t.loop_ns.(0) +. (now_ns () -. start));
    submit =
      (fun ~region request ~reply ->
        mark t client_issue;
        let reply response =
          mark t client_reply;
          span t reply_span (fun () -> reply response)
        in
        span t submit_span (fun () -> system.Facade.submit ~region request ~reply));
  }

let protocol_event t ~site:_ ~entity:_ = function
  | Samya.Avantan_core.Decided { led = true; rounds; _ } ->
      t.led_decisions <- t.led_decisions + 1;
      t.led_rounds <- t.led_rounds + rounds
  | _ -> ()

(* Tracers on every lane engine and the network; returns the wrapped
   facade to drive. *)
let install t cluster system =
  let engines =
    match Samya.Cluster.shard cluster with
    | Some shard -> Des.Shard.engines shard
    | None -> [| Samya.Cluster.engine cluster |]
  in
  Array.iter (fun e -> Des.Engine.set_tracer e (Some (engine_tracer t))) engines;
  Geonet.Network.set_tracer (Samya.Cluster.network cluster) (Some (network_tracer t));
  wrap t system

let classes t =
  List.init t.n_classes (fun c -> (t.names.(c), t.events.(c), t.ns.(c) *. 1e-9))

let total_events t = Array.fold_left ( + ) 0 t.events
let total_s t = Array.fold_left ( +. ) 0.0 t.ns *. 1e-9
let loop_s t = t.loop_ns.(0) *. 1e-9

let span_calls t i = t.span_calls.(i)

let span_mean_ns t i =
  if t.span_calls.(i) = 0 then 0.0 else t.span_self_ns.(i) /. float_of_int t.span_calls.(i)

let led_decisions t = t.led_decisions
let led_rounds t = t.led_rounds
