type 'c entry = { term : int; command : 'c }

type 'c msg =
  | Request_vote of { term : int; last_log_index : int; last_log_term : int }
  | Vote of { term : int; granted : bool }
  | Append_entries of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : 'c entry array;
      leader_commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }

type role = Follower | Candidate | Leader

type 'c t = {
  engine : Des.Engine.t;
  id : int;
  nodes : int list;
  send : int -> 'c msg -> unit;
  timeout_range : float * float;
  heartbeat_ms : float;
  on_apply : (int -> 'c -> unit) option;
  rng : Des.Rng.t;
  log : 'c entry Storage.Wal.t;
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  mutable leader : int option;
  mutable commit_index : int;
  mutable applied : int;
  mutable votes : (int, unit) Hashtbl.t;
  next_index : (int, int) Hashtbl.t;
  match_index : (int, int) Hashtbl.t;
  waiters : (int, int * (unit -> unit)) Hashtbl.t; (* index -> (term, callback) *)
  mutable election_timer : Des.Engine.timer option;
  mutable heartbeat_timer : Des.Engine.timer option;
  mutable paused : bool;
}

let create ~engine ~id ~nodes ~send ?(election_timeout_ms = (150.0, 300.0))
    ?heartbeat_ms ?on_apply () =
  let heartbeat_ms =
    Option.value heartbeat_ms ~default:(fst election_timeout_ms /. 3.0)
  in
  {
    engine;
    id;
    nodes;
    send;
    timeout_range = election_timeout_ms;
    heartbeat_ms;
    on_apply;
    rng = Des.Rng.split (Des.Engine.rng engine);
    log = Storage.Wal.create ();
    term = 0;
    voted_for = None;
    role = Follower;
    leader = None;
    commit_index = -1;
    applied = -1;
    votes = Hashtbl.create 8;
    next_index = Hashtbl.create 8;
    match_index = Hashtbl.create 8;
    waiters = Hashtbl.create 32;
    election_timer = None;
    heartbeat_timer = None;
    paused = false;
  }

let majority t = (List.length t.nodes / 2) + 1

let peers t = List.filter (fun node -> node <> t.id) t.nodes

let last_log_index t = Storage.Wal.length t.log - 1

let term_at t index = if index < 0 then 0 else (Storage.Wal.get t.log index).term

let cancel_timer slot =
  match slot with Some timer -> Des.Engine.cancel timer | None -> ()

let apply_committed t =
  while t.applied < t.commit_index do
    t.applied <- t.applied + 1;
    match t.on_apply with
    | Some f -> f t.applied (Storage.Wal.get t.log t.applied).command
    | None -> ()
  done

let rec arm_election_timer t =
  cancel_timer t.election_timer;
  let lo, hi = t.timeout_range in
  let delay = lo +. Des.Rng.float t.rng (hi -. lo) in
  t.election_timer <-
    Some (Des.Engine.timer t.engine ~delay_ms:delay (fun () -> on_election_timeout t))

and on_election_timeout t =
  if (not t.paused) && t.role <> Leader then begin
    (* Become candidate for a fresh term. *)
    t.term <- t.term + 1;
    t.role <- Candidate;
    t.voted_for <- Some t.id;
    t.leader <- None;
    t.votes <- Hashtbl.create 8;
    Hashtbl.replace t.votes t.id ();
    let last = last_log_index t in
    List.iter
      (fun node ->
        t.send node
          (Request_vote { term = t.term; last_log_index = last; last_log_term = term_at t last }))
      (peers t);
    check_votes t
  end;
  if not t.paused then arm_election_timer t

and become_leader t =
  t.role <- Leader;
  t.leader <- Some t.id;
  Hashtbl.reset t.next_index;
  Hashtbl.reset t.match_index;
  let next = Storage.Wal.length t.log in
  List.iter
    (fun node ->
      Hashtbl.replace t.next_index node next;
      Hashtbl.replace t.match_index node (-1))
    (peers t);
  send_heartbeats t;
  arm_heartbeat_timer t

and check_votes t =
  if t.role = Candidate && Hashtbl.length t.votes >= majority t then become_leader t

and arm_heartbeat_timer t =
  cancel_timer t.heartbeat_timer;
  t.heartbeat_timer <-
    Some
      (Des.Engine.timer t.engine ~delay_ms:t.heartbeat_ms (fun () ->
           if (not t.paused) && t.role = Leader then begin
             send_heartbeats t;
             arm_heartbeat_timer t
           end))

and send_append t node =
  let next = Option.value (Hashtbl.find_opt t.next_index node) ~default:0 in
  let prev_index = next - 1 in
  let count = Storage.Wal.length t.log - next in
  let entries = Array.init (max 0 count) (fun i -> Storage.Wal.get t.log (next + i)) in
  t.send node
    (Append_entries
       {
         term = t.term;
         prev_index;
         prev_term = term_at t prev_index;
         entries;
         leader_commit = t.commit_index;
       })

and send_heartbeats t = List.iter (send_append t) (peers t)

let step_down t new_term =
  t.term <- new_term;
  t.role <- Follower;
  t.voted_for <- None;
  cancel_timer t.heartbeat_timer;
  t.heartbeat_timer <- None;
  arm_election_timer t

let advance_leader_commit t =
  (* Find the highest index replicated on a majority with an entry from the
     current term (Raft's commitment rule, §5.4.2 of the paper). *)
  let changed = ref false in
  let candidate = ref (t.commit_index + 1) in
  let continue_scan = ref true in
  while !continue_scan && !candidate <= last_log_index t do
    let index = !candidate in
    let replicas =
      1
      + List.length
          (List.filter
             (fun node -> Option.value (Hashtbl.find_opt t.match_index node) ~default:(-1) >= index)
             (peers t))
    in
    if replicas >= majority t && term_at t index = t.term then begin
      t.commit_index <- index;
      changed := true;
      incr candidate
    end
    else if replicas >= majority t then incr candidate (* older-term entry: skip, commit via later entry *)
    else continue_scan := false
  done;
  if !changed then begin
    apply_committed t;
    (* Fire commit callbacks for entries at or below the commit index. *)
    let fired = ref [] in
    Hashtbl.iter
      (fun index (term, callback) ->
        if index <= t.commit_index then begin
          if term_at t index = term then callback ();
          fired := index :: !fired
        end)
      t.waiters;
    List.iter (Hashtbl.remove t.waiters) !fired
  end

let start t = arm_election_timer t

let handle t ~src msg =
  if t.paused then ()
  else begin
    (* Any message from a later term demotes us. *)
    (match msg with
    | Request_vote { term; _ } | Vote { term; _ }
    | Append_entries { term; _ } | Append_reply { term; _ } ->
        if term > t.term then step_down t term);
    match msg with
    | Request_vote { term; last_log_index = cand_last; last_log_term = cand_last_term } ->
        let my_last = last_log_index t in
        let up_to_date =
          cand_last_term > term_at t my_last
          || (cand_last_term = term_at t my_last && cand_last >= my_last)
        in
        let grant =
          term = t.term && up_to_date
          && (t.voted_for = None || t.voted_for = Some src)
        in
        if grant then begin
          t.voted_for <- Some src;
          arm_election_timer t
        end;
        t.send src (Vote { term = t.term; granted = grant })
    | Vote { term; granted } ->
        if t.role = Candidate && term = t.term && granted then begin
          Hashtbl.replace t.votes src ();
          check_votes t
        end
    | Append_entries { term; prev_index; prev_term; entries; leader_commit } ->
        if term < t.term then
          t.send src (Append_reply { term = t.term; success = false; match_index = -1 })
        else begin
          (* Valid leader for this term. *)
          if t.role <> Follower then step_down t term;
          t.leader <- Some src;
          arm_election_timer t;
          let have_prev =
            prev_index < 0
            || (prev_index <= last_log_index t && term_at t prev_index = prev_term)
          in
          if not have_prev then
            t.send src (Append_reply { term = t.term; success = false; match_index = -1 })
          else begin
            (* Append, truncating on conflicts. *)
            Array.iteri
              (fun offset (entry : _ entry) ->
                let index = prev_index + 1 + offset in
                if index <= last_log_index t then begin
                  if (Storage.Wal.get t.log index).term <> entry.term then begin
                    Storage.Wal.truncate_from t.log index;
                    ignore (Storage.Wal.append t.log entry)
                  end
                end
                else ignore (Storage.Wal.append t.log entry))
              entries;
            let match_index = prev_index + Array.length entries in
            if leader_commit > t.commit_index then begin
              t.commit_index <- min leader_commit (last_log_index t);
              apply_committed t
            end;
            t.send src (Append_reply { term = t.term; success = true; match_index })
          end
        end
    | Append_reply { term; success; match_index } ->
        if t.role = Leader && term = t.term then begin
          if success then begin
            Hashtbl.replace t.match_index src match_index;
            Hashtbl.replace t.next_index src (match_index + 1);
            advance_leader_commit t
          end
          else begin
            (* Back off and retry immediately. *)
            let next = Option.value (Hashtbl.find_opt t.next_index src) ~default:0 in
            Hashtbl.replace t.next_index src (max 0 (next - 1));
            send_append t src
          end
        end
  end

let submit t command ~on_commit =
  if t.role <> Leader then Error t.leader
  else begin
    let index = Storage.Wal.append t.log { term = t.term; command } in
    Hashtbl.replace t.waiters index (t.term, on_commit);
    List.iter (send_append t) (peers t);
    (* A single-node cluster commits immediately. *)
    advance_leader_commit t;
    Ok index
  end

let role t = t.role
let is_leader t = t.role = Leader
let current_term t = t.term
let commit_index t = t.commit_index

let pause t =
  t.paused <- true;
  cancel_timer t.election_timer;
  cancel_timer t.heartbeat_timer;
  t.election_timer <- None;
  t.heartbeat_timer <- None;
  t.role <- Follower;
  t.leader <- None;
  Hashtbl.reset t.waiters

let resume t =
  t.paused <- false;
  arm_election_timer t
