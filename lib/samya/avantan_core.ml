module Ballot = Consensus.Ballot

type event =
  | Election_started of { ballot : Ballot.t; round : int }
  | Election_joined of { ballot : Ballot.t; leader : int }
  | Value_constructed of { ballot : Ballot.t; participants : int }
  | Value_accepted of { ballot : Ballot.t; leader : int }
  | Recovery_started of { ballot : Ballot.t }
  | Decided of { origin : Ballot.t; participants : int; led : bool; rounds : int }
  | Instance_aborted of { ballot : Ballot.t; led : bool; rounds : int }

let pp_event fmt = function
  | Election_started { ballot; round } ->
      Format.fprintf fmt "election-started(%a, round=%d)" Ballot.pp ballot round
  | Election_joined { ballot; leader } ->
      Format.fprintf fmt "election-joined(%a, leader=%d)" Ballot.pp ballot leader
  | Value_constructed { ballot; participants } ->
      Format.fprintf fmt "value-constructed(%a, |R|=%d)" Ballot.pp ballot participants
  | Value_accepted { ballot; leader } ->
      Format.fprintf fmt "value-accepted(%a, leader=%d)" Ballot.pp ballot leader
  | Recovery_started { ballot } ->
      Format.fprintf fmt "recovery-started(%a)" Ballot.pp ballot
  | Decided { origin; participants; led; rounds } ->
      Format.fprintf fmt "decided(%a, |R|=%d, led=%b, rounds=%d)" Ballot.pp origin
        participants led rounds
  | Instance_aborted { ballot; led; rounds } ->
      Format.fprintf fmt "aborted(%a, led=%b, rounds=%d)" Ballot.pp ballot led rounds

type env = {
  self : int;
  n_sites : int;
  send : int -> Protocol.msg -> unit;
  set_timer : delay_ms:float -> (unit -> unit) -> Des.Engine.timer;
  local_state : scope:string list -> Protocol.contrib list;
  refresh_wanted : scope:string list -> unit;
  my_scope : unit -> string list;
  on_outcome : Protocol.outcome -> unit;
  on_event : event -> unit;
  persist : unit -> unit;
}

(* Protocol timers, tuned for the five-region topology: each sits well
   above the worst one-way WAN latency (~150 ms). The cohort's failure
   detector must outlast the leader's election patience. *)
let election_timeout_ms = 800.0 (* leader phase-1 patience *)
let accept_timeout_ms = 800.0 (* leader phase-2 retry period *)
let cohort_timeout_ms = 2_500.0 (* cohort's leader-failure detector *)
let status_retry_ms = 1_000.0 (* Avantan[*] Status-Query retry while blocked *)

(* What a cohort tells a prospective leader; the leader's own state is
   stored in the same form. Policies without carried accept state leave
   the accept fields at their zero values. *)
type report = {
  contribs : Protocol.contrib list;
  r_accept_val : Protocol.value option;
  r_accept_num : Ballot.t;
  r_decision : bool;
}

type status = { s_accept_val : Protocol.value option; s_decision : bool }

type policy = {
  name : string;
  seed_self : bool;
  carry_accept_state : bool;
  busy_cohort_rejects : bool;
  scope_to_participants : bool;
  abort_when_all_reported : bool;
  discard_unheard_on_abort : bool;
  discard_stragglers : bool;
  cohort_recovery : [ `Rerun_leader | `Interrogate ];
  construct_ready :
    n_sites:int -> own:Protocol.contrib list -> reports:(int, report) Hashtbl.t -> bool;
  salvage_on_timeout : reports:(int, report) Hashtbl.t -> bool;
  decide_ready :
    n_sites:int -> participants:int list -> acks:(int, unit) Hashtbl.t -> bool;
}

(* Avantan[(n+1)/2] (Algorithm 1, §4.3.1): majority-of-n construction
   and decision quorums, accepted values carried across instances, and a
   silent leader's cohorts re-run the leader code with a higher ballot. *)
let majority =
  {
    name = "Avantan[(n+1)/2]";
    seed_self = true;
    carry_accept_state = true;
    busy_cohort_rejects = false;
    scope_to_participants = false;
    abort_when_all_reported = false;
    discard_unheard_on_abort = false;
    discard_stragglers = false;
    cohort_recovery = `Rerun_leader;
    construct_ready =
      (fun ~n_sites ~own:_ ~reports -> Hashtbl.length reports >= (n_sites / 2) + 1);
    salvage_on_timeout = (fun ~reports:_ -> false);
    decide_ready =
      (fun ~n_sites ~participants:_ ~acks -> Hashtbl.length acks >= (n_sites / 2) + 1);
  }

let pooled_tokens reports =
  Hashtbl.fold
    (fun _ r acc ->
      List.fold_left (fun acc (_, e) -> acc + e.Protocol.tokens_left) acc r.contribs)
    reports 0

(* Avantan[*] (§4.3.2): any subset whose pooled spare covers the
   leader's want, one instance per cohort at a time, decision by all of
   R_t, Status-Query recovery. *)
let star =
  {
    name = "Avantan[*]";
    seed_self = false;
    carry_accept_state = false;
    busy_cohort_rejects = true;
    scope_to_participants = true;
    abort_when_all_reported = true;
    discard_unheard_on_abort = true;
    discard_stragglers = true;
    cohort_recovery = `Interrogate;
    (* The leader proceeds once the pooled spare can cover its own wants. *)
    construct_ready =
      (fun ~n_sites:_ ~own ~reports ->
        let wanted =
          List.fold_left (fun acc (_, e) -> acc + e.Protocol.tokens_wanted) 0 own
        in
        pooled_tokens reports >= wanted);
    salvage_on_timeout = (fun ~reports -> pooled_tokens reports > 0);
    (* The decision requires Accept-Oks from all of R_t, not a majority. *)
    decide_ready =
      (fun ~n_sites:_ ~participants ~acks ->
        List.for_all (fun site -> Hashtbl.mem acks site) participants);
  }

let policy_of_variant = function Config.Majority -> majority | Config.Star -> star

type phase =
  | Idle
  | Leading_election of { bal : Ballot.t; responses : (int, report) Hashtbl.t }
  | Leading_accept of {
      bal : Ballot.t;
      value : Protocol.value;
      acks : (int, unit) Hashtbl.t;
    }
  | Cohort_waiting of { bal : Ballot.t; leader : int }
  | Cohort_accepted of { bal : Ballot.t; leader : int; value : Protocol.value }
  | Recovering of {
      bal : Ballot.t;
      value : Protocol.value;
      replies : (int, status) Hashtbl.t;
    }

(* The one stats surface for every Avantan variant. *)
module Stats = struct
  type stats = {
    led_started : int;
    led_decided : int;
    led_aborted : int;
    participated : int;
    decisions_applied : int;
    recoveries : int;
  }

  let zero_stats =
    {
      led_started = 0;
      led_decided = 0;
      led_aborted = 0;
      participated = 0;
      decisions_applied = 0;
      recoveries = 0;
    }

  let add_stats a b =
    {
      led_started = a.led_started + b.led_started;
      led_decided = a.led_decided + b.led_decided;
      led_aborted = a.led_aborted + b.led_aborted;
      participated = a.participated + b.participated;
      decisions_applied = a.decisions_applied + b.decisions_applied;
      recoveries = a.recoveries + b.recoveries;
    }
end

include Stats

type t = {
  env : env;
  pol : policy;
  mutable ballot : Ballot.t;
  mutable phase : phase;
  mutable scope : string list;
      (* entities piggybacked on the current instance: frozen from
         [env.my_scope] when we lead, adopted from Election-GetValue when
         we join; [[]] between instances *)
  mutable exposed : bool;
      (* exposure-based participation (carried-accept-state policies): true
         from the moment our InitVal leaves this site until the instance
         concludes; while exposed the site queues client traffic *)
  mutable in_recovery : bool;
      (* true while re-running the leader code because a leader we promised
         to went silent; if we also hold an accepted value, election
         timeouts must retry (stay blocked) rather than abort, since that
         value may have been decided (§4.3.1) *)
  mutable accept_val : Protocol.value option;
  mutable accept_num : Ballot.t;
  mutable decision : bool;
  mutable timer : Des.Engine.timer option;
  mutable last_applied_origin : Ballot.t option;
      (* carried-state dedupe: instances decide in origin order *)
  mutable applied : Protocol.value Ballot.Map.t;
      (* per-instance dedupe + the log that answers Status-Query;
         persistent, so a durable image shares it instead of copying *)
  mutable rounds : int; (* election attempts within the current instance *)
  mutable s_led_started : int;
  mutable s_led_decided : int;
  mutable s_led_aborted : int;
  mutable s_participated : int;
  mutable s_applied : int;
  mutable s_recoveries : int;
}

let create ~policy env =
  {
    env;
    pol = policy;
    ballot = Ballot.zero env.self;
    phase = Idle;
    scope = [];
    exposed = false;
    in_recovery = false;
    accept_val = None;
    accept_num = Ballot.zero env.self;
    decision = false;
    timer = None;
    last_applied_origin = None;
    applied = Ballot.Map.empty;
    rounds = 0;
    s_led_started = 0;
    s_led_decided = 0;
    s_led_aborted = 0;
    s_participated = 0;
    s_applied = 0;
    s_recoveries = 0;
  }

let participating t = if t.pol.carry_accept_state then t.exposed else t.phase <> Idle

let ballot t = t.ballot

(* ------------------------------------------------------------------ *)
(* Durable image (crash-amnesia recovery)                               *)

type image = {
  i_ballot : Ballot.t;
  i_accept_val : Protocol.value option;
  i_accept_num : Ballot.t;
  i_decision : bool;
  i_last_applied_origin : Ballot.t option;
  i_applied : Protocol.value Ballot.Map.t;
}

let snapshot t =
  (* Without carried accept state the accepted value lives in the phase,
     not in the mutable fields: only a cohort-held acceptance must survive
     a crash (an in-flight leadership attempt of our own dies with us and
     is recovered by the cohorts' own failure detectors). *)
  let accept_val, accept_num =
    if t.pol.carry_accept_state then (t.accept_val, t.accept_num)
    else
      match t.phase with
      | Cohort_accepted { bal; value; _ } | Recovering { bal; value; _ } ->
          (Some value, bal)
      | Idle | Leading_election _ | Leading_accept _ | Cohort_waiting _ ->
          (None, Ballot.zero t.env.self)
  in
  {
    i_ballot = t.ballot;
    i_accept_val = accept_val;
    i_accept_num = accept_num;
    i_decision = t.decision;
    i_last_applied_origin = t.last_applied_origin;
    i_applied = t.applied;
  }

let image_applied image = image.i_applied

let stats t =
  {
    led_started = t.s_led_started;
    led_decided = t.s_led_decided;
    led_aborted = t.s_led_aborted;
    participated = t.s_participated;
    decisions_applied = t.s_applied;
    recoveries = t.s_recoveries;
  }

let stop_timer t =
  (match t.timer with Some timer -> Des.Engine.cancel timer | None -> ());
  t.timer <- None

let arm_timer t delay f =
  stop_timer t;
  t.timer <- Some (t.env.set_timer ~delay_ms:delay f)

let broadcast t msg =
  for node = 0 to t.env.n_sites - 1 do
    if node <> t.env.self then t.env.send node msg
  done

let members value = Protocol.participants value

let send_members t value msg =
  List.iter (fun site -> if site <> t.env.self then t.env.send site msg) (members value)

(* Instance over: reset the Table 1c variables (BallotNum survives) and
   report the outcome so the site can reallocate / drain its queue. *)
let conclude t outcome =
  let led =
    match t.phase with Leading_election _ | Leading_accept _ -> true | _ -> false
  in
  let rounds = t.rounds in
  stop_timer t;
  t.phase <- Idle;
  t.scope <- [];
  t.exposed <- false;
  t.in_recovery <- false;
  t.accept_val <- None;
  t.accept_num <- Ballot.zero t.env.self;
  t.decision <- false;
  t.rounds <- 0;
  (match outcome with
  | Protocol.Decided value ->
      t.env.on_event
        (Decided
           {
             origin = value.Protocol.origin;
             participants = List.length (Protocol.participants value);
             led;
             rounds;
           })
  | Protocol.Aborted ->
      t.env.on_event (Instance_aborted { ballot = t.ballot; led; rounds }));
  t.env.on_outcome outcome;
  (* One durability point covers the whole conclusion: the applied ledger
     update (on_outcome runs decision application and the queue drain) and
     the reset accept state land in the same image. *)
  t.env.persist ()

let apply_decision t (value : Protocol.value) =
  if t.pol.carry_accept_state then begin
    let fresh =
      match t.last_applied_origin with
      | Some origin -> Ballot.(value.Protocol.origin > origin)
      | None -> true
    in
    if fresh then begin
      t.last_applied_origin <- Some value.Protocol.origin;
      t.applied <- Ballot.Map.add value.Protocol.origin value t.applied;
      t.s_applied <- t.s_applied + 1;
      conclude t (Protocol.Decided value)
    end
    else if t.exposed || t.phase <> Idle then
      (* A re-delivered decision for an instance we already applied still
         releases us from any residual participation. *)
      conclude t Protocol.Aborted
  end
  else if Ballot.Map.mem value.Protocol.origin t.applied then begin
    if participating t then conclude t Protocol.Aborted
  end
  else begin
    t.applied <- Ballot.Map.add value.Protocol.origin value t.applied;
    t.s_applied <- t.s_applied + 1;
    conclude t (Protocol.Decided value)
  end

let my_report t =
  if t.pol.carry_accept_state then
    {
      contribs = t.env.local_state ~scope:t.scope;
      r_accept_val = t.accept_val;
      r_accept_num = t.accept_num;
      r_decision = t.decision;
    }
  else
    {
      contribs = t.env.local_state ~scope:t.scope;
      r_accept_val = None;
      r_accept_num = Ballot.zero t.env.self;
      r_decision = false;
    }

(* Fresh construction: group the collected InitVals by entity, each group's
   entries deterministically ordered by (site, entry). With a single entity
   this degenerates to the old flat per-site concatenation. *)
let fresh_value origin contribs_by_site =
  let triples =
    List.concat_map
      (fun (site, cs) -> List.map (fun (entity, entry) -> (entity, (site, entry))) cs)
      contribs_by_site
    |> List.sort compare
  in
  let rec gather = function
    | [] -> []
    | (entity, first) :: rest ->
        let same, others = List.partition (fun (e, _) -> String.equal e entity) rest in
        let pairs = first :: List.map snd same in
        { Protocol.g_entity = entity; g_entries = List.map snd pairs } :: gather others
  in
  Protocol.make_batched ~origin (gather triples)

(* Value construction over the collected reports. With carried accept
   state this is Algorithm 1 lines 15-23 (decided value > highest-ballot
   accepted value > fresh concatenation); without it the value is always
   the fresh concatenation of the InitVals, the leader's own included.
   Returns the value and whether it is already known decided. *)
let construct_value t origin responses =
  if t.pol.carry_accept_state then begin
    let reports = Hashtbl.fold (fun _ r acc -> r :: acc) responses [] in
    let decided = List.find_opt (fun r -> r.r_decision) reports in
    match decided with
    | Some { r_accept_val = Some v; _ } -> (v, true)
    | Some { r_accept_val = None; _ } | None -> (
        let best_accepted =
          List.fold_left
            (fun best r ->
              match r.r_accept_val with
              | None -> best
              | Some v -> (
                  match best with
                  | Some (num, _) when Ballot.(num >= r.r_accept_num) -> best
                  | Some _ | None -> Some (r.r_accept_num, v)))
            None reports
        in
        match best_accepted with
        | Some (_, v) -> (v, false)
        | None ->
            ( fresh_value origin
                (Hashtbl.fold (fun site r acc -> (site, r.contribs) :: acc) responses []),
              false ))
  end
  else
    ( fresh_value origin
        ((t.env.self, t.env.local_state ~scope:t.scope)
        :: Hashtbl.fold (fun site r acc -> (site, r.contribs) :: acc) responses []),
      false )

let rec start t =
  if not (participating t) then begin
    t.ballot <- Ballot.next t.ballot ~site:t.env.self;
    t.s_led_started <- t.s_led_started + 1;
    t.rounds <- t.rounds + 1;
    (* Freeze the instance scope on the first attempt; retries within the
       instance (recovery re-runs) keep soliciting the same entities. *)
    if t.scope = [] then t.scope <- t.env.my_scope ();
    let responses = Hashtbl.create 8 in
    if t.pol.seed_self then Hashtbl.replace responses t.env.self (my_report t);
    t.phase <- Leading_election { bal = t.ballot; responses };
    t.exposed <- true;
    t.env.on_event (Election_started { ballot = t.ballot; round = t.rounds });
    (* The bumped ballot must be durable before any site hears it, or an
       amnesiac restart could reuse it for a different instance. *)
    t.env.persist ();
    broadcast t (Protocol.Election_get_value { bal = t.ballot; scope = t.scope });
    arm_timer t election_timeout_ms (fun () -> on_election_timeout t);
    (* Degenerate single-site system: we are our own quorum. *)
    try_construct t
  end

(* Recovery: run the same leader code with a higher ballot (§4.3.1). *)
and recover_as_leader t =
  t.exposed <- false;
  t.in_recovery <- true;
  t.env.on_event (Recovery_started { ballot = t.ballot });
  start t

and on_election_timeout t =
  match t.phase with
  | Leading_election _ when t.pol.carry_accept_state && t.in_recovery && t.accept_val <> None
    ->
      (* We hold an accepted value that may have been decided elsewhere: we
         must stay blocked until a quorum tells us its fate — the paper's
         blocked-until-majority case. Retry with a higher ballot. *)
      t.exposed <- false;
      start t
  | Leading_election { bal; responses } when t.pol.salvage_on_timeout ~reports:responses
    ->
      (* No more responders are coming, but those who answered do hold
         spare: form R_t from them — a partial redistribution keeps the
         minority partition serving (Fig. 3d). *)
      construct t bal responses
  | Leading_election { bal; responses } ->
      (* Nothing was constructed, abort is safe; release any cohort that
         may have locked onto this instance. *)
      t.s_led_aborted <- t.s_led_aborted + 1;
      Hashtbl.iter
        (fun site _ ->
          if site <> t.env.self then t.env.send site (Protocol.Discard { bal }))
        responses;
      if t.pol.discard_unheard_on_abort then
        for node = 0 to t.env.n_sites - 1 do
          if node <> t.env.self && not (Hashtbl.mem responses node) then
            t.env.send node (Protocol.Discard { bal })
        done;
      conclude t Protocol.Aborted
  | Leading_accept _ | Cohort_waiting _ | Cohort_accepted _ | Recovering _ | Idle -> ()

and construct t bal responses =
  let value, known_decided = construct_value t bal responses in
  if t.pol.carry_accept_state then begin
    t.accept_val <- Some value;
    t.accept_num <- bal;
    t.decision <- known_decided;
    (* The leader self-accepts: durable before the value leaves. *)
    t.env.persist ()
  end;
  if known_decided then begin
    (* The instance was already decided by a failed leader: just
       redistribute the decision. *)
    broadcast t (Protocol.Decision { bal; value });
    t.s_led_decided <- t.s_led_decided + 1;
    apply_decision t value
  end
  else begin
    t.env.on_event
      (Value_constructed
         { ballot = bal; participants = List.length (Protocol.participants value) });
    if t.pol.scope_to_participants then
      (* Everyone outside R_t discards this instance. *)
      for node = 0 to t.env.n_sites - 1 do
        if node <> t.env.self && not (Protocol.mem_site value node) then
          t.env.send node (Protocol.Discard { bal })
      done;
    let acks = Hashtbl.create 8 in
    Hashtbl.replace acks t.env.self ();
    t.phase <- Leading_accept { bal; value; acks };
    let accept = Protocol.Accept_value { bal; value; decision = false } in
    if t.pol.scope_to_participants then send_members t value accept
    else broadcast t accept;
    arm_timer t accept_timeout_ms (fun () -> on_accept_timeout t);
    try_decide t
  end

and try_construct t =
  match t.phase with
  | Leading_election { bal; responses }
    when t.pol.construct_ready ~n_sites:t.env.n_sites
           ~own:(t.env.local_state ~scope:t.scope) ~reports:responses ->
      construct t bal responses
  | Leading_election _ | Leading_accept _ | Cohort_waiting _ | Cohort_accepted _
  | Recovering _ | Idle ->
      ()

and on_accept_timeout t =
  match t.phase with
  | Leading_accept { bal; value; acks } ->
      (* Value constructed but not yet fault-tolerant: the paper's blocking
         case. Keep re-sending until the quorum is back (with carried
         accept state a higher ballot can still supersede us). *)
      if t.pol.scope_to_participants then
        List.iter
          (fun site ->
            if site <> t.env.self && not (Hashtbl.mem acks site) then
              t.env.send site (Protocol.Accept_value { bal; value; decision = false }))
          (members value)
      else broadcast t (Protocol.Accept_value { bal; value; decision = false });
      arm_timer t accept_timeout_ms (fun () -> on_accept_timeout t)
  | Leading_election _ | Cohort_waiting _ | Cohort_accepted _ | Recovering _ | Idle -> ()

and try_decide t =
  match t.phase with
  | Leading_accept { bal; value; acks }
    when t.pol.decide_ready ~n_sites:t.env.n_sites ~participants:(members value) ~acks ->
      if t.pol.carry_accept_state then t.decision <- true;
      t.s_led_decided <- t.s_led_decided + 1;
      let decision = Protocol.Decision { bal; value } in
      if t.pol.scope_to_participants then send_members t value decision
      else broadcast t decision;
      apply_decision t value
  | Leading_accept _ | Leading_election _ | Cohort_waiting _ | Cohort_accepted _
  | Recovering _ | Idle ->
      ()

and on_cohort_timeout t =
  match t.pol.cohort_recovery with
  | `Rerun_leader -> recover_as_leader t
  | `Interrogate -> (
      match t.phase with
      | Cohort_waiting _ ->
          (* Case (i): we never accepted a value, so the leader cannot have
             decided without our Accept-Ok — abort unilaterally. *)
          conclude t Protocol.Aborted
      | Cohort_accepted { bal; value; leader = _ } ->
          (* Case (ii): interrogate the participant set. *)
          t.s_recoveries <- t.s_recoveries + 1;
          t.env.on_event (Recovery_started { ballot = bal });
          let replies = Hashtbl.create 8 in
          t.phase <- Recovering { bal; value; replies };
          send_members t value (Protocol.Status_query { bal });
          arm_timer t status_retry_ms (fun () -> on_status_retry t)
      | Recovering _ | Leading_election _ | Leading_accept _ | Idle -> ())

and on_status_retry t =
  match t.phase with
  | Recovering { bal; value; replies } ->
      List.iter
        (fun site ->
          if site <> t.env.self && not (Hashtbl.mem replies site) then
            t.env.send site (Protocol.Status_query { bal }))
        (members value);
      arm_timer t status_retry_ms (fun () -> on_status_retry t)
  | Cohort_waiting _ | Cohort_accepted _ | Leading_election _ | Leading_accept _ | Idle
    ->
      ()

let evaluate_recovery t =
  match t.phase with
  | Recovering { bal; value; replies } ->
      let decided =
        Hashtbl.fold
          (fun _ s acc ->
            match acc with
            | Some _ -> acc
            | None -> if s.s_decision then s.s_accept_val else None)
          replies None
      in
      (match decided with
      | Some decided_value ->
          send_members t decided_value (Protocol.Decision { bal; value = decided_value });
          apply_decision t decided_value
      | None ->
          let someone_empty =
            Hashtbl.fold (fun _ s acc -> acc || s.s_accept_val = None) replies false
          in
          if someone_empty then begin
            (* Same as case (i): the leader can never assemble all acks. *)
            send_members t value (Protocol.Discard { bal });
            conclude t Protocol.Aborted
          end
          else begin
            (* Decide once every participant except the (failed) leader has
               confirmed the identical accepted value. *)
            let leader = value.Protocol.origin.Ballot.site in
            let needed =
              List.filter
                (fun site -> site <> t.env.self && site <> leader)
                (members value)
            in
            if List.for_all (fun site -> Hashtbl.mem replies site) needed then begin
              send_members t value (Protocol.Decision { bal; value });
              apply_decision t value
            end
          end)
  | Cohort_waiting _ | Cohort_accepted _ | Leading_election _ | Leading_accept _ | Idle
    ->
      ()

let restore t (image : image) =
  t.ballot <- image.i_ballot;
  t.last_applied_origin <- image.i_last_applied_origin;
  t.applied <- image.i_applied;
  if t.pol.carry_accept_state then begin
    t.accept_val <- image.i_accept_val;
    t.accept_num <- image.i_accept_num;
    t.decision <- image.i_decision;
    match image.i_accept_val with
    | Some _ ->
        (* We hold a possibly-decided value: re-run the leader code with a
           higher ballot until a quorum tells us its fate (§4.3.1) — the
           same discipline as outliving a silent leader. *)
        recover_as_leader t
    | None -> ()
  end
  else
    match image.i_accept_val with
    | Some value ->
        (* A cohort that accepted before crashing resumes in
           Cohort_accepted, so the leader's Accept-Value retries are
           re-acked; if the leader died meanwhile the re-armed cohort
           timeout interrogates the participant set as usual. *)
        let leader = value.Protocol.origin.Ballot.site in
        t.phase <- Cohort_accepted { bal = image.i_accept_num; leader; value };
        arm_timer t cohort_timeout_ms (fun () -> on_cohort_timeout t)
    | None -> ()

let status_for t ~bal =
  match t.phase with
  | Cohort_accepted { bal = b; value; _ } when Ballot.equal b bal ->
      { s_accept_val = Some value; s_decision = false }
  | Recovering { bal = b; value; _ } when Ballot.equal b bal ->
      { s_accept_val = Some value; s_decision = false }
  | Leading_accept { bal = b; value; _ } when Ballot.equal b bal ->
      { s_accept_val = Some value; s_decision = false }
  | _ -> (
      match Ballot.Map.find_opt bal t.applied with
      | Some value -> { s_accept_val = Some value; s_decision = true }
      | None -> { s_accept_val = None; s_decision = false })

let handle t ~src msg =
  match msg with
  | Protocol.Election_get_value { bal; scope } ->
      if t.pol.busy_cohort_rejects && participating t then
        t.env.send src (Protocol.Election_reject { bal = t.ballot })
      else if Ballot.(bal > t.ballot) then begin
        t.ballot <- bal;
        t.scope <- scope;
        (* Lines 9-11: refresh TokensWanted from the local prediction
           before exposing our state. *)
        t.env.refresh_wanted ~scope;
        let report = my_report t in
        (match t.phase with
        | Idle | Leading_election _ | Leading_accept _ ->
            (* Any leadership attempt of ours is superseded; our accepted
               value (if any) rides along in the report. *)
            t.s_participated <- t.s_participated + 1
        | Cohort_waiting _ | Cohort_accepted _ | Recovering _ -> ());
        t.phase <- Cohort_waiting { bal; leader = src };
        t.exposed <- true;
        t.env.on_event (Election_joined { ballot = bal; leader = src });
        (* Paxos promise discipline: the promised ballot must be durable
           before the promise is sent, or a crash-and-restart could promise
           a smaller ballot to a second leader. *)
        t.env.persist ();
        t.env.send src
          (Protocol.Election_ok_value
             {
               bal;
               contribs = report.contribs;
               accept_val = report.r_accept_val;
               accept_num = report.r_accept_num;
               decision = report.r_decision;
             });
        arm_timer t cohort_timeout_ms (fun () -> on_cohort_timeout t)
      end
      else if t.pol.busy_cohort_rejects then
        t.env.send src (Protocol.Election_reject { bal = t.ballot })
  | Protocol.Election_ok_value { bal; contribs; accept_val; accept_num; decision } -> (
      match t.phase with
      | Leading_election { bal = b; responses } when Ballot.equal b bal ->
          Hashtbl.replace responses src
            {
              contribs;
              r_accept_val = accept_val;
              r_accept_num = accept_num;
              r_decision = decision;
            };
          try_construct t;
          if t.pol.abort_when_all_reported then begin
            (* Everyone answered and nothing could be pooled: waiting out
               the timer helps nobody, abort now. *)
            match t.phase with
            | Leading_election { responses; _ }
              when Hashtbl.length responses >= t.env.n_sites - 1 ->
                on_election_timeout t
            | _ -> ()
          end
      | Leading_election _ | Leading_accept _ | Cohort_waiting _ | Cohort_accepted _
      | Recovering _ | Idle ->
          (* Straggler from a closed collection: release it. *)
          if t.pol.discard_stragglers then t.env.send src (Protocol.Discard { bal }))
  | Protocol.Election_reject { bal } ->
      (* Keep our counter ahead so the next attempt is acceptable. *)
      if
        (t.pol.busy_cohort_rejects || t.pol.carry_accept_state)
        && Ballot.(bal > t.ballot)
      then begin
        t.ballot <- { bal with Ballot.site = t.env.self };
        t.env.persist ();
        match t.phase with
        | Leading_accept _ when t.pol.carry_accept_state ->
            (* Our accept phase was superseded behind a partition: the
               carried value may have been decided without us, so we must
               not abort — re-run leadership at a higher ballot until a
               quorum reveals the instance's fate (the same
               blocked-until-majority rule as recovery). *)
            recover_as_leader t
        | Leading_election _ | Cohort_waiting _ | Cohort_accepted _
        | Recovering _ | Idle | Leading_accept _ ->
            ()
      end
  | Protocol.Accept_value { bal; value; decision } ->
      if t.pol.carry_accept_state then begin
        if Ballot.(bal >= t.ballot) then begin
          t.ballot <- bal;
          t.accept_val <- Some value;
          t.accept_num <- bal;
          t.decision <- decision;
          (* Accepted state must be durable before the Accept-Ok leaves:
             the leader counts this ack toward the decision quorum. *)
          t.env.persist ();
          t.env.send src (Protocol.Accept_ok { bal });
          if decision then apply_decision t value
          else begin
            t.phase <- Cohort_accepted { bal; leader = src; value };
            t.env.on_event (Value_accepted { ballot = bal; leader = src });
            arm_timer t cohort_timeout_ms (fun () -> on_cohort_timeout t)
          end
        end
        else
          (* Stale ballot: the sender is a leader that was cut off
             mid-accept while the rest of us recovered its instance under
             a higher ballot. Silence would leave it re-sending (and its
             entity exposed) forever — tell it where the ballot stands so
             it can re-run leadership and learn its value's fate. *)
          t.env.send src (Protocol.Election_reject { bal = t.ballot })
      end
      else begin
        match t.phase with
        | Cohort_waiting { bal = b; leader } when Ballot.equal b bal && leader = src ->
            t.phase <- Cohort_accepted { bal; leader; value };
            t.env.on_event (Value_accepted { ballot = bal; leader = src });
            t.env.persist ();
            t.env.send src (Protocol.Accept_ok { bal });
            arm_timer t cohort_timeout_ms (fun () -> on_cohort_timeout t)
        | Cohort_accepted { bal = b; leader; _ } when Ballot.equal b bal && leader = src
          ->
            (* Duplicate (leader retrying): re-ack. *)
            t.env.send src (Protocol.Accept_ok { bal })
        | Cohort_waiting _ | Cohort_accepted _ | Leading_election _ | Leading_accept _
        | Recovering _ | Idle ->
            ()
      end
  | Protocol.Accept_ok { bal } -> (
      match t.phase with
      | Leading_accept { bal = b; acks; _ } when Ballot.equal b bal ->
          Hashtbl.replace acks src ();
          try_decide t
      | Leading_accept _ | Leading_election _ | Cohort_waiting _ | Cohort_accepted _
      | Recovering _ | Idle ->
          ())
  | Protocol.Decision { bal = _; value } -> apply_decision t value
  | Protocol.Discard { bal } -> (
      match t.phase with
      | Cohort_waiting { bal = b; _ } when Ballot.equal b bal ->
          conclude t Protocol.Aborted
      | Cohort_accepted { bal = b; _ }
        when (not t.pol.carry_accept_state) && Ballot.equal b bal ->
          (* With carried accept state an accepted value may already be
             decided elsewhere, so a Discard must not release it. *)
          conclude t Protocol.Aborted
      | Recovering { bal = b; _ } when Ballot.equal b bal -> conclude t Protocol.Aborted
      | Cohort_waiting _ | Cohort_accepted _ | Recovering _ | Leading_election _
      | Leading_accept _ | Idle ->
          ())
  | Protocol.Status_query { bal } -> (
      match t.pol.cohort_recovery with
      | `Rerun_leader -> (* no interrogation machinery in this policy *) ()
      | `Interrogate ->
          let { s_accept_val; s_decision } = status_for t ~bal in
          t.env.send src
            (Protocol.Status_reply
               { bal; accept_val = s_accept_val; accept_num = bal; decision = s_decision }))
  | Protocol.Status_reply { bal; accept_val; accept_num = _; decision } -> (
      match t.phase with
      | Recovering { bal = b; replies; _ } when Ballot.equal b bal ->
          Hashtbl.replace replies src { s_accept_val = accept_val; s_decision = decision };
          evaluate_recovery t
      | Recovering _ | Cohort_waiting _ | Cohort_accepted _ | Leading_election _
      | Leading_accept _ | Idle ->
          ())
