(** Wire messages of the Avantan redistribution protocols (§4.3).

    Both variants share the message vocabulary; they differ in quorum rules,
    participation and recovery: the {!Avantan_core.majority} and
    {!Avantan_core.star} policies. [AcceptVal] is a {e list} of per-site
    states — the key departure from Paxos, where the value is a single
    client proposal.

    A value is a list of {e groups}, one per entity whose deltas ride on
    the instance, each labelled with its entity. A per-entity machine's
    values carry one group; a batched site-level machine's carry one per
    scoped entity, so one WAN round can redistribute many entities at
    once. *)

module Ballot = Consensus.Ballot

type site_entry = Reallocation.entry = {
  site : int;
  tokens_left : int;
  tokens_wanted : int;
}

type group = {
  g_entity : string;  (** entity whose per-site states this group carries *)
  g_entries : site_entry list;  (** the list [L_t] of InitVals of [R_t] *)
}

type value = {
  origin : Ballot.t;
      (** the ballot at which this value was first constructed (line 22 of
          Algorithm 1). Recovery leaders adopt a value {e unchanged}, so
          [origin] uniquely identifies the redistribution instance even
          when the same value is re-driven and decided under a higher
          ballot — sites use it to apply each decision exactly once. *)
  groups : group list;  (** one group per piggybacked entity *)
}

type contrib = string * site_entry
(** One site's InitVal for one entity — what election replies carry. *)

val make_value : origin:Ballot.t -> entity:string -> site_entry list -> value
(** A one-group value: [entity]'s entries. *)

val make_batched : origin:Ballot.t -> group list -> value

val participants : value -> int list
(** Site ids present in a value, ascending, deduplicated across groups. *)

val mem_site : value -> int -> bool

val value_equal : value -> value -> bool

type msg =
  | Election_get_value of { bal : Ballot.t; scope : string list }
      (** leader: phase-1 solicitation (leader election + value collection);
          [scope] lists the entities piggybacked on this instance (the
          one bound entity for per-entity machines) *)
  | Election_ok_value of {
      bal : Ballot.t;
      contribs : contrib list;
      accept_val : value option;
      accept_num : Ballot.t;
      decision : bool;
    }  (** cohort: promise carrying its per-entity states and any accepted
           value *)
  | Election_reject of { bal : Ballot.t }
      (** Avantan[*]: cohort is locked in another instance *)
  | Accept_value of { bal : Ballot.t; value : value; decision : bool }
      (** leader: phase-2 fault-tolerant storage of the constructed value *)
  | Accept_ok of { bal : Ballot.t }
  | Decision of { bal : Ballot.t; value : value }
      (** asynchronous decision distribution *)
  | Discard of { bal : Ballot.t }
      (** leader aborted the instance; cohorts unlock and resume *)
  | Status_query of { bal : Ballot.t }
      (** Avantan[*] recovery: interrogate the other participants *)
  | Status_reply of {
      bal : Ballot.t;
      accept_val : value option;
      accept_num : Ballot.t;
      decision : bool;
    }

(** Outcome reported to the site when an instance finishes. *)
type outcome =
  | Decided of value
  | Aborted  (** instance abandoned; site serves locally what it can *)
