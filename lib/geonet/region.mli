(** Cloud regions and the inter-region latency model.

    The paper deploys on Google Cloud Platform in five regions (US-West1,
    Asia-East2, Europe-West2, Australia-Southeast1, SouthAmerica-East1), plus
    two further US regions for the MultiPaxSys placement (a Spanner-like
    system keeps a majority of replicas inside the US). Round-trip times are
    calibrated to published GCP inter-region measurements; they need only be
    accurate in {e ratio} for the evaluation's shape to hold. *)

type t =
  | Us_west1
  | Us_central1
  | Us_east1
  | Asia_east2
  | Europe_west2
  | Australia_southeast1
  | Southamerica_east1

val name : t -> string

val index : t -> int
(** Dense index of the region in {!all} (row/column order of the latency
    table) — the key for per-region lane lookups in sharded runs. *)

val all : t list

val default_five : t list
(** The five regions used by most experiments, in the paper's order. *)

val rtt_ms : t -> t -> float
(** Symmetric inter-region round-trip time. Within a region the RTT models
    zone-local networking (~1 ms). *)

val one_way_ms : t -> t -> float
(** [rtt_ms a b /. 2.]. *)

val client_site_rtt_ms : float
(** RTT between a client/app-manager and a site in the same region. *)

val min_cross_one_way_ms : unit -> float
(** Smallest one-way latency between two {e distinct} regions, over the
    full table (not just a deployment's hosting set). This is the
    conservative lookahead of a region-sharded simulation: every
    cross-region message takes at least this long, so events closer than
    this to the global frontier cannot be affected by in-flight traffic
    from another region. *)

val lane_assignment : t array -> int array * int array * int
(** [lane_assignment regions] maps a deployment (site [i] hosted in
    [regions.(i)]) to simulation lanes:
    [(node_lane, region_lane, lanes)] where [node_lane.(i)] is site [i]'s
    lane, [region_lane.(index r)] is the lane handling region [r], and
    [lanes] is the number of distinct lanes. Lanes are numbered densely
    by first occurrence of each hosting region in [regions]; a region
    hosting no site (a foreign client's home) rides the lane of its
    nearest hosted region (ties to the lowest site index) — deterministic
    in [regions] alone. *)

val of_string : string -> t option
