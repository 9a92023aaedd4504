type 'c msg =
  | Accept of { index : int; command : 'c }
  | Accept_ok of { index : int }
  | Commit of { index : int }

type 'c pending = {
  acks : (int, unit) Hashtbl.t;
  on_commit : unit -> unit;
}

type 'c t = {
  id : int;
  nodes : int list;
  leader : int;
  send : int -> 'c msg -> unit;
  on_apply : (int -> 'c -> unit) option;
  log : 'c Storage.Wal.t;
  pending : (int, 'c pending) Hashtbl.t; (* leader: in-flight entries *)
  mutable commit_index : int;
  mutable applied : int;
}

let create ~engine:_ ~id ~nodes ~leader ~send ?on_apply () =
  {
    id;
    nodes;
    leader;
    send;
    on_apply;
    log = Storage.Wal.create ();
    pending = Hashtbl.create 32;
    commit_index = -1;
    applied = -1;
  }

let is_leader t = t.id = t.leader

let majority t = (List.length t.nodes / 2) + 1

let apply_up_to t =
  (* Apply committed entries in order, but only those locally present (a
     follower may learn a commit index ahead of its log). *)
  let limit = min t.commit_index (Storage.Wal.length t.log - 1) in
  while t.applied < limit do
    t.applied <- t.applied + 1;
    match t.on_apply with
    | Some f -> f t.applied (Storage.Wal.get t.log t.applied)
    | None -> ()
  done

let advance_commit t =
  (* Commit contiguously from the current commit index; each entry is
     applied to the local state machine before its on_commit callback runs,
     so callbacks observe the post-application state. *)
  let rec loop () =
    let next = t.commit_index + 1 in
    match Hashtbl.find_opt t.pending next with
    | Some entry when Hashtbl.length entry.acks >= majority t ->
        t.commit_index <- next;
        Hashtbl.remove t.pending next;
        List.iter (fun node -> if node <> t.id then t.send node (Commit { index = next })) t.nodes;
        apply_up_to t;
        entry.on_commit ();
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  apply_up_to t

let submit t command ~on_commit =
  if not (is_leader t) then invalid_arg "Multipaxos.submit: not the leader";
  let index = Storage.Wal.append t.log command in
  let entry = { acks = Hashtbl.create 8; on_commit } in
  Hashtbl.replace entry.acks t.id ();
  Hashtbl.replace t.pending index entry;
  List.iter (fun node -> if node <> t.id then t.send node (Accept { index; command })) t.nodes;
  advance_commit t

let handle t ~src msg =
  match msg with
  | Accept { index; command } ->
      (* In-order durable append; out-of-order arrivals (a gap) are ignored
         and will be re-sent by a real system — with FIFO-ish simulated
         links and no leader change, gaps only arise from message loss. *)
      if index = Storage.Wal.length t.log then begin
        ignore (Storage.Wal.append t.log command);
        t.send src (Accept_ok { index })
      end
      else if index < Storage.Wal.length t.log then t.send src (Accept_ok { index })
  | Accept_ok { index } -> (
      match Hashtbl.find_opt t.pending index with
      | Some entry ->
          Hashtbl.replace entry.acks src ();
          advance_commit t
      | None -> ())
  | Commit { index } ->
      if index > t.commit_index then begin
        t.commit_index <- index;
        apply_up_to t
      end

let resend_pending t =
  Hashtbl.iter
    (fun index _ ->
      let command = Storage.Wal.get t.log index in
      List.iter
        (fun node -> if node <> t.id then t.send node (Accept { index; command }))
        t.nodes)
    t.pending

let pending_count t = Hashtbl.length t.pending

let commit_index t = t.commit_index
