(** Demarcation/Escrow — the value-partitioned baseline (§5, baseline ii).

    Captures the mechanisms of the demarcation protocol (Barbara &
    Garcia-Molina) extended to N sites (Alonso & El Abbadi) with site
    escrows (Kumar & Stonebraker): every site starts with an equal escrow
    of the entity's maximum and serves requests locally; when a request
    exceeds the local escrow the site {e borrows} from peers, asking one
    peer at a time in proximity order. A lender transfers the borrower's
    immediate need plus a small fixed escrow quantum — demarcation adjusts
    limits incrementally, with no notion of globally rebalancing the
    value. Client requests queue while a borrow is in progress.

    Faithful to its ancestry, the protocol assumes a reliable network — no
    retransmissions; a lost message blocks the borrower (a patience timer
    eventually rejects its queue so simulations terminate). There is no
    prediction and no global redistribution, which is exactly what Samya
    adds on top (§5.3: latency spikes on demand peaks, ~1.3x lower
    throughput). *)

type t

val create : ?seed:int64 -> ?regions:Geonet.Region.t array -> unit -> t
(** Default regions: the paper's five (us-west1, asia-east2, europe-west2,
    australia-southeast1, southamerica-east1). A lender adds a fixed
    escrow chunk of 10 tokens on top of the borrower's immediate need —
    demarcation adjusts limits in small increments, which is what keeps
    it borrowing again at every demand peak. A borrower gives up on a
    silent peer after 10 s. *)

val engine : t -> Des.Engine.t

val set_net_tracer : t -> Geonet.Network.tracer option -> unit
(** Install a message-hop observer on the internal network (the network
    itself is not exposed); [None] removes it. *)

val obs_port : t -> Obs.Sink.port
(** Late-bound observability port. With a sink attached, traced requests
    record their causal lifecycle (site acceptance, borrow-queue windows,
    CPU backlog waits, local service), so [explain] can attribute their
    latency. *)

val net_stats : t -> int * int * int
(** [(sent, delivered, dropped)] counters of the internal network. *)

val init_entity : t -> entity:Samya.Types.entity -> maximum:int -> unit

val submit :
  t ->
  region:Geonet.Region.t ->
  Samya.Types.request ->
  reply:(Samya.Types.response -> unit) ->
  unit

val crash_site : t -> int -> unit

val recover_site : t -> int -> unit
(** Bring a crashed site back; escrow shares survive (freeze model). *)

val partition : t -> int list list -> unit
val heal : t -> unit

val total_tokens_left : t -> entity:Samya.Types.entity -> int
val total_acquired : t -> entity:Samya.Types.entity -> int
val borrows : t -> int
(** Total borrow round-trips performed. *)

val check_invariant : t -> entity:Samya.Types.entity -> maximum:int -> (unit, string) result
