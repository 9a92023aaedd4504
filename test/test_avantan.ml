(* White-box tests of the Avantan state machines: the failure-free phases
   and the recovery cases of Algorithm 1 (§4.3.1) and of Avantan[*]
   (§4.3.2), driven by crafted message sequences against a single machine
   with a scripted environment. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module Ballot = Consensus.Ballot
module P = Samya.Protocol
module Av = Samya.Avantan_core

let entry site tokens_left tokens_wanted = { P.site; tokens_left; tokens_wanted }

(* The one entity every scripted machine is bound to. *)
let entity = "VM"

(* Scripted environment: outbound messages, outcomes, and the structured
   protocol events of the {!Avantan_core.on_event} hook are all recorded
   so tests can assert on them. *)
type script = {
  engine : Des.Engine.t;
  sent : (int * P.msg) list ref;
  outcomes : P.outcome list ref;
  events : Av.event list ref;  (* newest first *)
  mutable state : P.site_entry;
}

let make_script ?(self = 0) ?(tokens_left = 100) ?(tokens_wanted = 50) () =
  let engine = Des.Engine.create () in
  let script =
    {
      engine;
      sent = ref [];
      outcomes = ref [];
      events = ref [];
      state = entry self tokens_left tokens_wanted;
    }
  in
  script

(* Both variants now share one env type: the policy, not the env, is what
   distinguishes them. *)
let core_env script ~self ~n_sites =
  {
    Av.self;
    n_sites;
    send = (fun dst msg -> script.sent := (dst, msg) :: !(script.sent));
    set_timer = (fun ~delay_ms f -> Des.Engine.timer script.engine ~delay_ms f);
    local_state = (fun ~scope:_ -> [ (entity, script.state) ]);
    refresh_wanted = (fun ~scope:_ -> ());
    my_scope = (fun () -> []);
    on_outcome = (fun outcome -> script.outcomes := outcome :: !(script.outcomes));
    on_event = (fun event -> script.events := event :: !(script.events));
    persist = (fun () -> ());
    election_timeout_ms = 800.0;
    accept_timeout_ms = 800.0;
    cohort_timeout_ms = 2_500.0;
    status_retry_ms = 1_000.0;
  }

(* A machine under each policy, driven by a scripted environment. *)
let machine policy script ~self ~n_sites =
  Av.create ~policy (core_env script ~self ~n_sites)

let majority = machine Av.majority

let star = machine Av.star

let has_event script predicate = List.exists predicate !(script.events)

let sent_to script dst =
  List.filter_map (fun (d, m) -> if d = dst then Some m else None) !(script.sent)
  |> List.rev

let count_kind script predicate =
  List.length (List.filter (fun (_, m) -> predicate m) !(script.sent))

let is_election = function P.Election_get_value _ -> true | _ -> false
let is_accept = function P.Accept_value _ -> true | _ -> false
let is_decision = function P.Decision _ -> true | _ -> false
let is_discard = function P.Discard _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Majority variant: failure-free leader path *)

let maj_leader_happy_path () =
  let script = make_script () in
  let machine = majority script ~self:0 ~n_sites:5 in
  Av.start machine;
  check int "election broadcast to 4 peers" 4 (count_kind script is_election);
  check bool "participating while leading" true
    (Av.participating machine);
  let bal = Av.ballot machine in
  (* Two ElectionOks (+ self) form the majority of 5. *)
  List.iter
    (fun site ->
      Av.handle machine ~src:site
        (P.Election_ok_value
           {
             bal;
             contribs = [ (entity, entry site 200 0) ];
             accept_val = None;
             accept_num = Ballot.zero site;
             decision = false;
           }))
    [ 1; 2 ];
  check int "accept broadcast" 4 (count_kind script is_accept);
  (* Acks from the same majority decide. *)
  List.iter
    (fun site -> Av.handle machine ~src:site (P.Accept_ok { bal }))
    [ 1; 2 ];
  check int "decision broadcast" 4 (count_kind script is_decision);
  (match !(script.outcomes) with
  | [ P.Decided value ] ->
      check (Alcotest.list int) "R_t = responders + self" [ 0; 1; 2 ]
        (P.participants value)
  | _ -> Alcotest.fail "expected one decided outcome");
  check bool "instance concluded" false (Av.participating machine);
  (* The structured event feed saw the whole instance. *)
  check bool "election event" true
    (has_event script (function
      | Av.Election_started { round = 1; _ } -> true
      | _ -> false));
  check bool "construction event" true
    (has_event script (function
      | Av.Value_constructed { participants = 3; _ } -> true
      | _ -> false));
  check bool "decided event as leader, one round" true
    (has_event script (function
      | Av.Decided { led = true; rounds = 1; participants = 3; _ } -> true
      | _ -> false))

let maj_cohort_happy_path () =
  let script = make_script ~self:3 ~tokens_wanted:0 () in
  let machine = majority script ~self:3 ~n_sites:5 in
  let bal = { Ballot.num = 1; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal; scope = [] });
  (match sent_to script 0 with
  | [ P.Election_ok_value { bal = b; contribs = [ (_, init_val) ]; _ } ] ->
      check bool "promised the ballot" true (Ballot.equal b bal);
      check int "reports own tokens" 100 init_val.P.tokens_left
  | _ -> Alcotest.fail "expected an ElectionOk");
  check bool "exposed after promising" true (Av.participating machine);
  let value = P.make_value ~origin:bal ~entity [ entry 0 50 10; entry 3 100 0 ] in
  Av.handle machine ~src:0
    (P.Accept_value { bal; value; decision = false });
  check bool "acked" true
    (List.exists (function P.Accept_ok _ -> true | _ -> false) (sent_to script 0));
  Av.handle machine ~src:0 (P.Decision { bal; value });
  (match !(script.outcomes) with
  | [ P.Decided v ] -> check bool "same value" true (P.value_equal v value)
  | _ -> Alcotest.fail "expected decided");
  check bool "released" false (Av.participating machine);
  check bool "joined event names the leader" true
    (has_event script (function
      | Av.Election_joined { leader = 0; _ } -> true
      | _ -> false));
  check bool "accepted event" true
    (has_event script (function
      | Av.Value_accepted { leader = 0; _ } -> true
      | _ -> false));
  check bool "decided event as pure cohort" true
    (has_event script (function
      | Av.Decided { led = false; rounds = 0; _ } -> true
      | _ -> false))

let maj_stale_ballot_ignored () =
  let script = make_script ~self:3 () in
  let machine = majority script ~self:3 ~n_sites:5 in
  let high = { Ballot.num = 5; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal = high; scope = [] });
  script.sent := [];
  (* A lower ballot from another would-be leader is ignored. *)
  Av.handle machine ~src:1
    (P.Election_get_value { bal = { Ballot.num = 2; site = 1 }; scope = [] });
  check int "no reply to a stale election" 0 (List.length !(script.sent))

let maj_decision_applied_once () =
  let script = make_script ~self:3 () in
  let machine = majority script ~self:3 ~n_sites:5 in
  let bal = { Ballot.num = 2; site = 0 } in
  let value = P.make_value ~origin:bal ~entity [ entry 0 0 40; entry 3 100 0 ] in
  Av.handle machine ~src:0 (P.Decision { bal; value });
  Av.handle machine ~src:1 (P.Decision { bal; value });
  let decided =
    List.filter (function P.Decided _ -> true | P.Aborted -> false) !(script.outcomes)
  in
  check int "one application for duplicate decisions" 1 (List.length decided)

let maj_recovery_adopts_accepted_value () =
  (* The new leader's majority includes a cohort holding an accepted value:
     it must adopt it, not construct a fresh one (lines 19-20). *)
  let script = make_script () in
  let machine = majority script ~self:0 ~n_sites:5 in
  Av.start machine;
  let bal = Av.ballot machine in
  let old_bal = { Ballot.num = 0; site = 4 } in
  let orphan = P.make_value ~origin:old_bal ~entity [ entry 4 10 5; entry 1 300 0 ] in
  Av.handle machine ~src:1
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 1 300 0) ];
         accept_val = Some orphan;
         accept_num = old_bal;
         decision = false;
       });
  Av.handle machine ~src:2
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 2 300 0) ];
         accept_val = None;
         accept_num = Ballot.zero 2;
         decision = false;
       });
  (* The accept phase must re-drive the orphaned value. *)
  let accepts =
    List.filter_map
      (fun (_, m) -> match m with P.Accept_value { value; _ } -> Some value | _ -> None)
      !(script.sent)
  in
  (match accepts with
  | value :: _ -> check bool "adopted the orphan" true (P.value_equal value orphan)
  | [] -> Alcotest.fail "no Accept-Value sent")

let maj_recovery_short_circuits_on_decision () =
  (* A response reporting decision=true ends the protocol immediately:
     the new leader just redistributes the decision (lines 16-18). *)
  let script = make_script () in
  let machine = majority script ~self:0 ~n_sites:5 in
  Av.start machine;
  let bal = Av.ballot machine in
  let old_bal = { Ballot.num = 0; site = 4 } in
  let decided = P.make_value ~origin:old_bal ~entity [ entry 4 10 5; entry 0 100 50 ] in
  Av.handle machine ~src:1
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 1 300 0) ];
         accept_val = Some decided;
         accept_num = old_bal;
         decision = true;
       });
  Av.handle machine ~src:2
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 2 300 0) ];
         accept_val = None;
         accept_num = Ballot.zero 2;
         decision = false;
       });
  check bool "decision redistributed" true (count_kind script is_decision >= 4);
  (match !(script.outcomes) with
  | [ P.Decided v ] -> check bool "applied the decided value" true (P.value_equal v decided)
  | _ -> Alcotest.fail "expected the decided outcome")

let maj_fresh_leader_aborts_on_timeout () =
  let script = make_script () in
  let machine = majority script ~self:0 ~n_sites:5 in
  Av.start machine;
  let bal = Av.ballot machine in
  (* One response is not a majority; let the election timer fire. *)
  Av.handle machine ~src:1
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 1 300 0) ];
         accept_val = None;
         accept_num = Ballot.zero 1;
         decision = false;
       });
  Des.Engine.run script.engine ~until_ms:1_000.0;
  check bool "aborted" true (!(script.outcomes) = [ P.Aborted ]);
  check bool "responder released" true
    (List.exists (function P.Discard _ -> true | _ -> false) (sent_to script 1));
  let stats = Av.stats machine in
  check int "abort counted" 1 stats.Av.led_aborted;
  check bool "abort event as leader" true
    (has_event script (function
      | Av.Instance_aborted { led = true; rounds = 1; _ } -> true
      | _ -> false))

(* ------------------------------------------------------------------ *)
(* Star variant *)

let star_leader_minimal_set () =
  let script = make_script ~tokens_left:0 ~tokens_wanted:100 () in
  let machine = star script ~self:0 ~n_sites:5 in
  Av.start machine;
  let bal = Av.ballot machine in
  (* The first responder already covers TW=100: R_t = {0, 1}. *)
  Av.handle machine ~src:1
    (P.Election_ok_value
       {
         bal;
         contribs = [ (entity, entry 1 500 0) ];
         accept_val = None;
         accept_num = Ballot.zero 1;
         decision = false;
       });
  let accepts =
    List.filter_map
      (fun (d, m) -> match m with P.Accept_value { value; _ } -> Some (d, value) | _ -> None)
      !(script.sent)
  in
  (match accepts with
  | [ (1, value) ] ->
      check (Alcotest.list int) "minimal participant set" [ 0; 1 ] (P.participants value)
  | _ -> Alcotest.fail "expected one Accept-Value to site 1");
  (* Non-members are told to discard. *)
  check bool "discards to non-members" true (count_kind script is_discard >= 3);
  (* The single member's ack decides (ALL of R_t). *)
  Av.handle machine ~src:1 (P.Accept_ok { bal });
  (match !(script.outcomes) with
  | [ P.Decided _ ] -> ()
  | _ -> Alcotest.fail "expected decided")

let star_locked_cohort_rejects_other_leaders () =
  let script = make_script ~self:2 ~tokens_wanted:0 () in
  let machine = star script ~self:2 ~n_sites:5 in
  let bal_a = { Ballot.num = 3; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal = bal_a; scope = [] });
  check bool "locked" true (Av.participating machine);
  script.sent := [];
  (* A concurrent leader with an even higher ballot is rejected. *)
  Av.handle machine ~src:4
    (P.Election_get_value { bal = { Ballot.num = 9; site = 4 }; scope = [] });
  (match sent_to script 4 with
  | [ P.Election_reject _ ] -> ()
  | _ -> Alcotest.fail "expected a rejection while locked")

let star_cohort_aborts_without_accepted_value () =
  (* Case (i) of §4.3.2: no AcceptVal received, leader silent: the cohort
     may abort unilaterally. *)
  let script = make_script ~self:2 ~tokens_wanted:0 () in
  let machine = star script ~self:2 ~n_sites:5 in
  Av.handle machine ~src:0
    (P.Election_get_value { bal = { Ballot.num = 3; site = 0 }; scope = [] });
  Des.Engine.run script.engine ~until_ms:5_000.0;
  check bool "aborted unilaterally" true (!(script.outcomes) = [ P.Aborted ]);
  check bool "unlocked" false (Av.participating machine)

let star_cohort_recovers_via_status_query () =
  (* Case (ii): an accepted value and a silent leader: interrogate R_t;
     identical AcceptVals at every other member mean the value is safe to
     decide. *)
  let script = make_script ~self:2 ~tokens_wanted:0 () in
  let machine = star script ~self:2 ~n_sites:5 in
  let bal = { Ballot.num = 3; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal; scope = [] });
  let value = P.make_value ~origin:bal ~entity [ entry 0 0 50; entry 1 100 0; entry 2 100 0 ] in
  Av.handle machine ~src:0 (P.Accept_value { bal; value; decision = false });
  script.sent := [];
  (* Leader dies; the cohort times out and queries R_t. *)
  Des.Engine.run script.engine ~until_ms:3_000.0;
  check bool "status query sent" true
    (List.exists (function P.Status_query _ -> true | _ -> false) (sent_to script 1));
  (* The only other non-leader member confirms the same value. *)
  Av.handle machine ~src:1
    (P.Status_reply { bal; accept_val = Some value; accept_num = bal; decision = false });
  (match !(script.outcomes) with
  | [ P.Decided v ] -> check bool "decided the stored value" true (P.value_equal v value)
  | _ -> Alcotest.fail "expected decided after recovery");
  check bool "decision distributed" true (count_kind script is_decision >= 1);
  check bool "recovery event" true
    (has_event script (function
      | Av.Recovery_started _ -> true
      | _ -> false))

let star_cohort_aborts_when_member_reports_empty () =
  (* A member replying bottom proves the leader never had all acks: abort. *)
  let script = make_script ~self:2 ~tokens_wanted:0 () in
  let machine = star script ~self:2 ~n_sites:5 in
  let bal = { Ballot.num = 3; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal; scope = [] });
  let value = P.make_value ~origin:bal ~entity [ entry 0 0 50; entry 1 100 0; entry 2 100 0 ] in
  Av.handle machine ~src:0 (P.Accept_value { bal; value; decision = false });
  Des.Engine.run script.engine ~until_ms:3_000.0;
  Av.handle machine ~src:1
    (P.Status_reply { bal; accept_val = None; accept_num = bal; decision = false });
  check bool "aborted" true (List.mem P.Aborted !(script.outcomes))

let star_status_query_answered_from_applied_log () =
  (* A site that already applied the decision answers a late Status-Query
     with decision=true. *)
  let script = make_script ~self:2 ~tokens_wanted:0 () in
  let machine = star script ~self:2 ~n_sites:5 in
  let bal = { Ballot.num = 3; site = 0 } in
  Av.handle machine ~src:0 (P.Election_get_value { bal; scope = [] });
  let value = P.make_value ~origin:bal ~entity [ entry 0 0 50; entry 2 100 0 ] in
  Av.handle machine ~src:0 (P.Accept_value { bal; value; decision = false });
  Av.handle machine ~src:0 (P.Decision { bal; value });
  script.sent := [];
  Av.handle machine ~src:1 (P.Status_query { bal });
  (match sent_to script 1 with
  | [ P.Status_reply { decision; accept_val = Some v; _ } ] ->
      check bool "decision reported" true decision;
      check bool "value included" true (P.value_equal v value)
  | _ -> Alcotest.fail "expected a status reply")

let suite =
  [
    Alcotest.test_case "maj: leader happy path" `Quick maj_leader_happy_path;
    Alcotest.test_case "maj: cohort happy path" `Quick maj_cohort_happy_path;
    Alcotest.test_case "maj: stale ballots ignored" `Quick maj_stale_ballot_ignored;
    Alcotest.test_case "maj: decision applied once" `Quick maj_decision_applied_once;
    Alcotest.test_case "maj: recovery adopts accepted value" `Quick
      maj_recovery_adopts_accepted_value;
    Alcotest.test_case "maj: recovery short-circuits on decision" `Quick
      maj_recovery_short_circuits_on_decision;
    Alcotest.test_case "maj: fresh leader aborts on timeout" `Quick
      maj_fresh_leader_aborts_on_timeout;
    Alcotest.test_case "star: minimal participant set" `Quick star_leader_minimal_set;
    Alcotest.test_case "star: locked cohort rejects" `Quick
      star_locked_cohort_rejects_other_leaders;
    Alcotest.test_case "star: unilateral abort (case i)" `Quick
      star_cohort_aborts_without_accepted_value;
    Alcotest.test_case "star: status-query recovery (case ii)" `Quick
      star_cohort_recovers_via_status_query;
    Alcotest.test_case "star: abort on empty member" `Quick
      star_cohort_aborts_when_member_reports_empty;
    Alcotest.test_case "star: status answered from log" `Quick
      star_status_query_answered_from_applied_log;
  ]
