(** Hierarchical resource tracking — the paper's motivating scenario
    (§1, Figure 1).

    A cloud customer is an organization tree: the root holds the
    customer-wide limit the admin configured, and any unit (team,
    sub-team) may carry its own tighter limit. Consuming a resource in a
    unit must respect {e every} limit on the path to the root — "any
    update to an intermediary unit must percolate to the root node".

    Built on Samya: each limited node is its own Samya entity, so the hot
    root counter is dis-aggregated across the geo-distributed sites like
    any other, and a consume operation acquires tokens on each limited
    ancestor bottom-up. If an ancestor rejects (its limit is the binding
    one), the tokens already taken from lower limits are released —
    compensation, not locking, since token pools are commutative.

    Unlimited intermediate nodes cost nothing: only nodes with limits
    correspond to entities. *)

type t

type node

val create :
  cluster:Samya.Cluster.t -> org_name:string -> root_limit:int -> t
(** The root entity is registered on the cluster with [root_limit]
    tokens split across its sites. *)

val root : t -> node

val add_unit : t -> parent:node -> name:string -> ?limit:int -> unit -> node
(** Adds an organizational unit under [parent]. With [limit], the unit
    gets its own entity (and its own enforced budget); without, it is a
    pure grouping node. Raises [Invalid_argument] on duplicate names under
    one parent or non-positive limits. *)

val path : t -> node -> string
(** Slash-separated path from the root, e.g. ["eCommerce.com/retail/clothing"]. *)

val limited_ancestors : t -> node -> (node * string) list
(** The limit-carrying nodes on the path from [node] (inclusive) to the
    root, bottom-up — the entities a consume must acquire. *)

val consume :
  t ->
  node:node ->
  region:Geonet.Region.t ->
  amount:int ->
  reply:(Samya.Types.response -> unit) ->
  unit
(** Acquire [amount] resource tokens for [node]: acquires on every limited
    ancestor bottom-up; on the first rejection the already-acquired levels
    are released and the client sees [Rejected]. *)

val return_resources :
  t ->
  node:node ->
  region:Geonet.Region.t ->
  amount:int ->
  reply:(Samya.Types.response -> unit) ->
  unit
(** Release [amount] back on every limited ancestor. The caller must not
    return more than it consumed for this node (same client contract as
    Samya's releaseTokens). *)

val pin_contention_tiers : t -> unit
(** Pins each limited node's token-movement policy on every site by its
    depth in limited ancestors — the org tree as the contention
    controller's escalation topology. The root entity percolates every
    consume in the organization, so it runs the full {!Samya.Config.Controller.Adaptive}
    state machine; a team limit directly under the root sees moderate
    cross-site traffic and is pinned to peer borrowing; deeper limits are
    mostly unit-local and pinned to plain escrow. Requires the cluster's
    {!Samya.Config.Controller.t.enabled} (raises [Invalid_argument]
    otherwise, like {!Samya.Cluster.pin_policy}). Call after the tree is
    built; units added later keep the site-wide default until re-pinned. *)

val usage : t -> node -> int
(** Tokens currently acquired against [node]'s own limit (the nearest
    limited ancestor's entity if the node itself is unlimited). *)

val availability : t -> node -> int
(** Tokens still grantable under [node]'s binding entity, summed across
    sites (a quiescent-state view, like the paper's global reads). *)
