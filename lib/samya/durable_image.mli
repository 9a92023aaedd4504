(** The per-entity state a crash-amnesiac site persists through
    {!Storage.Durable}.

    One image per entity, written atomically as a whole: the token ledger
    ([tokens_left]/[acquired_net]), the applied-origins dedupe set, the
    decided log that answers peer Recovery-Queries, and the protocol
    instance's own durable state ({!Avantan_core.image}). Snapshotting the
    whole record at once keeps the image internally consistent under weak
    sync policies — a crash rolls the ledger and the dedupe set back
    {e together}, so catch-up replay re-applies exactly the instances the
    rolled-back ledger is missing.

    The dedupe set, the decided log and the protocol's applied log are
    persistent values shared with the live state, never copied, so a
    capture is one record allocation whatever their size. *)

type t = {
  tokens_left : int;
  acquired_net : int;
  applied_origins : Consensus.Ballot.Set.t;
  decided_log : Protocol.value list;
  protocol : Avantan_core.image option;
}

val capture : Entity_state.t -> t
(** Snapshot an entity's durable state in O(1). *)
