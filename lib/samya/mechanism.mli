(** First-class token-movement mechanisms.

    The paper's prediction module decides {e how many} tokens a site
    should hold; this interface is the generalisation to {e which
    protocol} should move them. Every way the system can respond to a
    local shortfall is one value of {!t}:

    - {!escrow} — serve within the local pool only; shortfalls refuse
      instantly (no WAN traffic, the Fig. 3e no-redistribution ablation
      as a mechanism);
    - {!borrow} — demarcation-style peer borrowing lifted out of
      [lib/baselines/demarcation.ml]: ask peers in proximity order for
      the queued shortfall plus a quantum, tokens move ledger-to-ledger
      in one message each way;
    - {!redistribute} — the paper's {!Protocol_driver} path: a batched
      Avantan consensus round re-divides the global pool.

    {!Request_handler} consults the {!Controller}'s current mechanism on
    every shortfall: [try_acquire] decides ([Park] behind an engagement or
    [Refuse]), the handler parks the request under the verdict's queue
    label, then [engage] fires the actual operation (protocol trigger or
    first peer ask). [replenish_hint] exposes each mechanism's ask
    sizing, [cost_estimate] an EWMA of its observed engagement latency;
    structured {!outcome} events feed the controller's windowed signals.

    With the controller disabled every entity stays on {!redistribute},
    the paper's reactive redistribution. *)

type kind = Config.Controller.mechanism =
  | Escrow
  | Borrow
  | Redistribute

val kind_name : kind -> string

type verdict =
  | Park of string
      (** queue the request behind the mechanism's in-flight engagement;
          the payload is the causal queue label ("borrow" /
          "redistribution"), so [explain] attributes the wait *)
  | Refuse  (** the mechanism cannot obtain tokens now: reject fast *)

(** Structured outcome of one finished engagement, fed to the
    controller. *)
type outcome = {
  o_kind : kind;
  o_satisfied : bool;  (** did it end with the queued shortfall covered? *)
  o_obtained : int;  (** tokens the engagement brought in *)
  o_wait_ms : float;  (** engagement duration (shortfall to outcome) *)
}

type t = {
  kind : kind;
  try_acquire : Entity_state.t -> amount:int -> verdict;
      (** called on a shortfall ([tokens_left < amount]); may record
          sizing state (e.g. raise [tokens_wanted]) but must not serve or
          queue the request itself *)
  engage : Entity_state.t -> unit;
      (** fire the engagement after the request is parked (message sends
          may resolve synchronously in the DES, so ordering matters) *)
  replenish_hint : Entity_state.t -> amount:int -> int;
      (** how many tokens the mechanism would try to obtain for a
          shortfall of [amount] *)
  cost_estimate : unit -> float;
      (** EWMA of observed engagement latency (ms), seeded with a prior *)
  note_cost : float -> unit;  (** feed an observed engagement latency *)
}

val escrow : unit -> t

(** {2 Peer borrowing} *)

(** What the borrow engine needs from the site; [bd_drain] (the request
    handler's queue drain) and [bd_on_finish] (the controller's signal
    feed) are wired after those modules exist, mirroring
    {!Protocol_driver.set_drain}. *)
type borrow_deps

val borrow_deps :
  engine:Des.Engine.t ->
  site_id:int ->
  peers:int list ->
  quantum:int ->
  patience_ms:float ->
  alive:(unit -> bool) ->
  send:(dst:int -> entity:Types.entity -> needed:int -> unit) ->
  ?obs:Obs.Sink.port ->
  unit ->
  borrow_deps
(** [peers] in proximity order, self excluded. *)

val set_borrow_drain :
  borrow_deps -> (Entity_state.t -> satisfied:bool -> unit) -> unit

val set_borrow_on_finish :
  borrow_deps -> (Entity_state.t -> outcome -> unit) -> unit

val borrow : borrow_deps -> t

val on_grant : borrow_deps -> Entity_state.t -> tokens:int -> unit
(** A [Borrow_grant] landed: bank the tokens, let the queue's fitting
    prefix have them, and advance (or finish) the conversation. Late
    grants — after the conversation finished — still land in the ledger,
    so token conservation never depends on the conversation being
    alive. *)

val grant_for : quantum:int -> tokens_left:int -> needed:int -> int
(** Lender sizing: [min (max 0 tokens_left) (needed + quantum)]. *)

val borrow_needed : Entity_state.t -> int
(** The queued acquires the local pool cannot cover (may be negative when
    the pool more than covers the queue). *)

(** {2 Avantan redistribution} *)

val redistribute :
  now:(unit -> float) ->
  reactive_ok:(Entity_state.t -> bool) ->
  reactive_wanted:(Entity_state.t -> amount:int -> int) ->
  trigger:(Entity_state.t -> unit) ->
  t
(** The reactive redistribution of Equation 5: [reactive_ok] is the
    famine/breaker gate ({!Redistribution_policy.reactive_ok}),
    [reactive_wanted] the prediction module's ask sizing, [trigger] the
    {!Protocol_driver} entry point. *)
