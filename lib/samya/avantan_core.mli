(** The shared Avantan phase machine, parameterised by a quorum policy.

    Both redistribution protocols of the paper — Avantan[(n+1)/2]
    (Algorithm 1, §4.3.1) and Avantan[*] (§4.3.2) — run the same five
    phases over the same message vocabulary:

    + {b Election-GetValue}: the triggering site increments its ballot and
      solicits the entity state of its cohorts.
    + {b ElectionOk-Value}: cohorts promise, refresh their [TokensWanted]
      from their own prediction, and reply with their InitVal (plus any
      previously accepted value when the policy carries accept state).
    + {b Accept-Value}: once the policy's construction quorum is met the
      leader constructs [AcceptVal] and distributes it.
    + {b Accept-Ok}: cohorts acknowledge the accepted value.
    + {b Decision}: once the policy's decision quorum acknowledges, the
      leader decides and distributes the decision asynchronously.

    What differs between the two protocols is captured in {!policy}: the
    construction quorum (a majority of all sites vs. any subset whose
    pooled tokens satisfy the leader), the decision quorum (majority vs.
    {e all} participants), whether accept state persists across instances
    (Paxos-style supersession vs. single-instance locking), and the two
    recovery disciplines (re-running the leader code with a higher ballot
    vs. interrogating the participant set with Status-Query).

    The two protocols are the policy values {!majority} and {!star}; new
    variants (flexible quorums, reconfiguration) only need a new {!policy}
    value. *)

module Ballot = Consensus.Ballot

(** {1 Protocol events}

    A structured feed of instance milestones, for harnesses and tests that
    want to observe elections, accepts, aborts and round counts without
    scraping logs. The hook must not mutate protocol state. *)

type event =
  | Election_started of { ballot : Ballot.t; round : int }
      (** this site started (or retried) an instance as leader *)
  | Election_joined of { ballot : Ballot.t; leader : int }
      (** this site promised an election and exposed its InitVal *)
  | Value_constructed of { ballot : Ballot.t; participants : int }
      (** the leader assembled its quorum and constructed a value *)
  | Value_accepted of { ballot : Ballot.t; leader : int }
      (** this site accepted a value as cohort *)
  | Recovery_started of { ballot : Ballot.t }
      (** leader-failure recovery began (either discipline) *)
  | Decided of { origin : Ballot.t; participants : int; led : bool; rounds : int }
      (** a decision was applied here; [rounds] counts this site's own
          election attempts within the instance (0 for pure cohorts) *)
  | Instance_aborted of { ballot : Ballot.t; led : bool; rounds : int }

val pp_event : Format.formatter -> event -> unit

(** {1 Environment} *)

type env = {
  self : int;
  n_sites : int;
  send : int -> Protocol.msg -> unit;
  set_timer : delay_ms:float -> (unit -> unit) -> Des.Engine.timer;
  local_state : scope:string list -> Protocol.contrib list;
      (** snapshot of [TokensLeft]/[TokensWanted] at this site for each
          entity in [scope], labelled by entity *)
  refresh_wanted : scope:string list -> unit;
      (** Algorithm 1 lines 9–11: re-predict and raise [TokensWanted]
          before answering an election (a no-op when prediction is
          disabled) *)
  my_scope : unit -> string list;
      (** called once when this site starts leading an instance: the
          entities to piggyback on it. Per-entity machines return their
          one entity; the batched driver drains its pending set here. *)
  on_outcome : Protocol.outcome -> unit;
      (** participation ended: a value was decided (apply it and drain the
          queue) or the instance aborted *)
  on_event : event -> unit;  (** structured observation hook; use [ignore] *)
  persist : unit -> unit;
      (** durability hook, called whenever protocol-critical state
          (promised ballot, accepted value, applied ledger) changes and
          {e before} the message that reveals the change is sent — the
          Paxos write-ahead discipline. The site wires this to its durable
          image under crash-amnesia; use [ignore] for the freeze model. *)
}
(** The protocol timers are constants of the implementation (DESIGN.md
    §3.1): election and accept patience 800 ms, the cohort's
    leader-failure detector 2,500 ms, the Avantan[*] Status-Query retry
    1,000 ms. *)

(** {1 Quorum policy} *)

type report = {
  contribs : Protocol.contrib list;
  r_accept_val : Protocol.value option;
  r_accept_num : Ballot.t;
  r_decision : bool;
}
(** What a cohort tells a prospective leader. *)

type policy = {
  name : string;
  seed_self : bool;
      (** count the leader's own report toward the construction quorum
          (majority counting) rather than adding it at construction time *)
  carry_accept_state : bool;
      (** Paxos lineage: accepted values persist across instances, ride
          along in election replies, and higher ballots supersede; without
          it a cohort is locked to exactly one instance at a time *)
  busy_cohort_rejects : bool;
      (** a locked cohort answers Election-GetValue with Election-Reject
          (so disjoint subsets can redistribute concurrently) *)
  scope_to_participants : bool;
      (** accepts/decisions go only to the value's participant set [R_t];
          everyone else is told to discard the instance *)
  abort_when_all_reported : bool;
      (** once every site answered, waiting out the election timer helps
          nobody: run the timeout logic immediately *)
  discard_unheard_on_abort : bool;
      (** on a phase-1 abort, also release sites whose replies may still
          be in flight *)
  discard_stragglers : bool;
      (** release a cohort whose ElectionOk arrives after the collection
          closed *)
  cohort_recovery : [ `Rerun_leader | `Interrogate ];
      (** leader-failure discipline: re-run the leader code with a higher
          ballot (quorum intersection adopts any possibly-decided value)
          vs. interrogate [R_t] with Status-Query *)
  construct_ready :
    n_sites:int -> own:Protocol.contrib list -> reports:(int, report) Hashtbl.t -> bool;
      (** may the leader construct a value from these reports now? *)
  salvage_on_timeout : reports:(int, report) Hashtbl.t -> bool;
      (** may an election that timed out still construct from the partial
          reports (partial [R_t] keeps a minority partition serving)? *)
  decide_ready :
    n_sites:int -> participants:int list -> acks:(int, unit) Hashtbl.t -> bool;
      (** is the accepted value decided given these acknowledgements? *)
}

val majority : policy
(** Avantan[(n+1)/2] (Algorithm 1, §4.3.1). The construction quorum is a
    majority of all [n] sites (the leader's own report included), the
    decision quorum is a majority of acknowledgements, accepted values
    persist across instances and ride along in election replies (so
    quorum intersection forces a recovering leader to adopt any
    possibly-decided value — Theorem 1), and a cohort whose leader goes
    silent re-runs the same leader code with a higher ballot. A leader
    that cannot assemble a majority in phase 1 aborts; a leader that
    stored a value but cannot gather majority acks re-broadcasts until a
    majority is back — the blocking case §4.3.1 describes. [recoveries]
    stays 0 under this policy. *)

val star : policy
(** Avantan[*] (§4.3.2), the paper's three modifications as a policy:
    the leader stops collecting ElectionOk-Values as soon as the pooled
    [TokensLeft] covers its own [TokensWanted] (responders plus leader
    form [R_t], everyone else is told to discard); a cohort participates
    in at most one instance at a time and rejects other
    Election-GetValue messages while locked (so disjoint subsets
    redistribute concurrently); the decision requires Accept-Oks from
    {e all} of [R_t]. A cohort that times out with no accepted value
    aborts unilaterally; with one it interrogates [R_t] with
    Status-Query. Decided values are applied as deltas against each
    site's InitVal, once per instance (DESIGN.md), so the races this
    variant admits delay tokens but never mint or destroy them. *)

val policy_of_variant : Config.variant -> policy
(** [majority] for [Config.Majority], [star] for [Config.Star]. *)

(** {1 The machine} *)

type t

val create : policy:policy -> env -> t

val start : t -> unit
(** Trigger a redistribution as leader. No-op while {!participating}. *)

val handle : t -> src:int -> Protocol.msg -> unit

val participating : t -> bool
(** [true] while this site's InitVal is exposed to a live instance — the
    interval during which the owning site must queue client requests. *)

val ballot : t -> Ballot.t

(** {1 Durable image (crash-amnesia recovery)} *)

type image
(** The protocol-critical state that must survive a crash for the safety
    argument to hold: the promised ballot, any accepted (possibly-decided)
    value, and the applied-instance log that answers Status-Query. *)

val snapshot : t -> image
(** O(1): the applied-instance log is a persistent map the image shares
    with the live machine. *)

val image_applied : image -> Protocol.value Ballot.Map.t
(** The applied-instance log an image carries, keyed by origin ballot. *)

val restore : t -> image -> unit
(** Rebuild a freshly-created machine from a durable image and resume:
    with carried accept state a restored accepted value re-runs the leader
    code under a higher ballot (it may have been decided); without it a
    restored cohort acceptance re-enters [Cohort_accepted] with the
    failure detector re-armed. Call once, immediately after {!create}. *)

(** {1 Statistics}

    One stats surface shared by every policy. *)

module Stats : sig
  type stats = {
    led_started : int;  (** instances this site started or recovered *)
    led_decided : int;  (** instances this site drove to decision *)
    led_aborted : int;  (** phase-1 aborts *)
    participated : int;  (** instances joined as cohort *)
    decisions_applied : int;
    recoveries : int;  (** Status-Query interrogations started (Avantan[*]) *)
  }

  val zero_stats : stats

  val add_stats : stats -> stats -> stats
end

include module type of struct include Stats end

val stats : t -> stats
