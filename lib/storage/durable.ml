type sync_policy = Sync_always | Sync_batched of int | Sync_never

let validate_policy = function
  | Sync_always | Sync_never -> Ok ()
  | Sync_batched n when n >= 1 -> Ok ()
  | Sync_batched _ -> Error "Sync_batched batch size must be >= 1"

type 'a t = {
  policy : sync_policy;
  store : 'a Stable_store.t;
  pending : (string, 'a) Hashtbl.t;
  mutable pending_writes : int;
  mutable syncs : int;
}

let create ~policy () =
  (match validate_policy policy with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Durable.create: " ^ reason));
  {
    policy;
    store = Stable_store.create ();
    pending = Hashtbl.create 8;
    pending_writes = 0;
    syncs = 0;
  }

let policy t = t.policy

let sync t =
  if Hashtbl.length t.pending > 0 then begin
    (* Keys are flushed in sorted order so the fsync pattern is
       deterministic across OCaml versions. *)
    let keys =
      List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.pending [])
    in
    List.iter
      (fun key -> Stable_store.put t.store ~key (Hashtbl.find t.pending key))
      keys;
    Hashtbl.reset t.pending;
    t.pending_writes <- 0;
    t.syncs <- t.syncs + 1
  end

let put t ~key value =
  match t.policy with
  | Sync_always ->
      Stable_store.put t.store ~key value;
      t.syncs <- t.syncs + 1
  | Sync_batched n ->
      Hashtbl.replace t.pending key value;
      t.pending_writes <- t.pending_writes + 1;
      if t.pending_writes >= n then sync t
  | Sync_never -> Hashtbl.replace t.pending key value

let force t ~key value =
  Hashtbl.remove t.pending key;
  Stable_store.put t.store ~key value;
  t.syncs <- t.syncs + 1

let load t ~key = Stable_store.get t.store ~key

let lose_unsynced t =
  let lost = Hashtbl.length t.pending in
  Hashtbl.reset t.pending;
  t.pending_writes <- 0;
  lost

let sync_count t = t.syncs

let pending_count t = Hashtbl.length t.pending
