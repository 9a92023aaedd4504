(** The chaos invariant auditor.

    Three families of checks:

    - {b token conservation} (Equation 1): summed over sites,
      [tokens_left + acquired_net = maximum] and [0 <= acquired <= maximum]
      — only meaningful at quiescence (no decision deliveries in flight),
      so gated behind [quiescent:true];
    - {b decided-log integrity}, safe at any time: no origin applied twice
      at one site, and any two sites that recorded a value under the same
      origin recorded {e equal} values (divergence is the ballot-reuse
      Paxos violation that lost promises produce under weak durability);
    - {b monotone decided prefixes}, fed live from the protocol event
      stream: an Avantan[(n+1)/2] machine applies decisions in strictly
      increasing origin order within one incarnation, checked per
      (site, protocol channel) (Avantan[*] instances are independent, so
      the check is variant-gated). *)

type violation = { check : string; site : int option; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : variant:Samya.Config.variant -> n_sites:int -> unit -> t
(** State is kept per site, so sites whose lanes drain on different
    domains never write a shared field. *)

val on_protocol_event :
  t -> site:int -> channel:Samya.Types.entity -> Samya.Avantan_core.event -> unit
(** Wire to {!Samya.Cluster.create}'s [on_protocol_event], passing its
    [entity] argument as [channel]: the label of the protocol channel the
    event came from (an entity, or {!Samya.Protocol_driver.batch_channel}). *)

val note_recovery : t -> site:int -> unit
(** A site recovered: reset the monotonicity baseline of all its channels
    (a crash-amnesiac site may legitimately re-apply instances its
    rolled-back ledger lost). *)

val live_violations : t -> violation list
(** Violations collected from the event stream so far, by site, each
    site's in the order it saw them. *)

val check_logs : (int * Samya.Protocol.value list) list -> violation list
(** Decided-log checks over [(site, log)] pairs; callable mid-run. *)

val check_cluster :
  t ->
  Samya.Cluster.t ->
  keys:(Samya.Types.entity * int) list ->
  quiescent:bool ->
  violation list
(** Everything at once: live violations, then for each [(entity,
    maximum)] in [keys] the log checks over every site's decided log for
    the entity and — when [quiescent] — its token conservation (the
    detail names the entity). *)
