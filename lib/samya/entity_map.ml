type 'hot core = {
  name : string;
  eid : int;
  mutable tokens_left : int;
  mutable acquired_net : int;
  mutable tokens_wanted : int;
  mutable exposed : bool;
  mutable hot : 'hot option;
}

module Directory = struct
  (* Open addressing with linear probing: each shard is a power-of-two
     [int array] of slots, [empty] or [hash lsl eid_bits lor eid] — the
     name's full 30-bit [Hashtbl.hash] tags its eid, so a probe touches
     [names] only on a hash match, and growth re-places entries without
     hashing a name. Every table holds exactly what inserting its eids in
     increasing order would leave (growth re-places in eid order), so
     removing the newest eids newest-first restores the older table
     exactly — which is all [truncate] needs to keep probe chains intact. *)
  type t = {
    shards : int;
    tables : int array array;
    used : int array;  (* names per shard *)
    mutable names : string array;  (* eid -> name *)
    mutable count : int;
  }

  let empty = -1
  let eid_bits = 31
  let eid_mask = (1 lsl eid_bits) - 1

  let table_size n =
    let rec go size = if size >= 2 * n then size else go (2 * size) in
    go 8

  let create ?(shards = 1) ?(capacity = 16) () =
    if shards < 1 then invalid_arg "Entity_map.Directory.create: shards must be >= 1";
    if capacity < 1 then
      invalid_arg "Entity_map.Directory.create: capacity must be >= 1";
    let per_shard = (capacity + shards - 1) / shards in
    {
      shards;
      tables = Array.init shards (fun _ -> Array.make (table_size per_shard) empty);
      used = Array.make shards 0;
      names = Array.make (max 8 capacity) "";
      count = 0;
    }

  let length t = t.count

  (* One hash per name. The shard is [h mod shards] and the home slot is
     drawn from [h / shards]: taking both from the same low bits would
     leave every name of shard [s] on the 1/shards of its table's slots
     congruent to [s], and probes would degrade into long runs. *)
  let home t h tbl = (h / t.shards) land (Array.length tbl - 1)

  (* The slot of [name] (hash [h]) in [tbl], or the free slot where it
     would go. *)
  let rec probe names tbl h name i =
    let slot = Array.unsafe_get tbl i in
    if
      slot = empty
      || slot lsr eid_bits = h
         && String.equal (Array.unsafe_get names (slot land eid_mask)) name
    then i
    else probe names tbl h name ((i + 1) land (Array.length tbl - 1))

  let find t name =
    let h = Hashtbl.hash name in
    let tbl = t.tables.(h mod t.shards) in
    let slot = tbl.(probe t.names tbl h name (home t h tbl)) in
    if slot = empty then -1 else slot land eid_mask

  let name t eid =
    if eid < 0 || eid >= t.count then
      invalid_arg "Entity_map.Directory.name: out of range";
    t.names.(eid)

  let rec free tbl i =
    if tbl.(i) = empty then i else free tbl ((i + 1) land (Array.length tbl - 1))

  let grow t shard =
    let old = t.tables.(shard) in
    let tbl = Array.make (2 * Array.length old) empty in
    List.iter
      (fun s -> tbl.(free tbl (home t (s lsr eid_bits) tbl)) <- s)
      (List.sort
         (fun a b -> Int.compare (a land eid_mask) (b land eid_mask))
         (List.filter (fun s -> s <> empty) (Array.to_list old)));
    t.tables.(shard) <- tbl

  let add t name =
    let eid = t.count in
    if eid > eid_mask then
      invalid_arg "Entity_map.Directory.add: eids must stay below 2^31";
    let h = Hashtbl.hash name in
    let shard = h mod t.shards in
    let tbl = t.tables.(shard) in
    let slot = probe t.names tbl h name (home t h tbl) in
    if tbl.(slot) <> empty then
      invalid_arg ("Entity_map.Directory.add: duplicate entity " ^ name);
    if eid = Array.length t.names then
      t.names <- Array.append t.names (Array.make eid "");
    t.names.(eid) <- name;
    t.count <- eid + 1;
    tbl.(slot) <- (h lsl eid_bits) lor eid;
    t.used.(shard) <- t.used.(shard) + 1;
    if 2 * t.used.(shard) > Array.length tbl then grow t shard;
    eid

  let truncate t n =
    if n < 0 || n > t.count then
      invalid_arg "Entity_map.Directory.truncate: out of range";
    for eid = t.count - 1 downto n do
      let name = t.names.(eid) in
      let h = Hashtbl.hash name in
      let shard = h mod t.shards in
      let tbl = t.tables.(shard) in
      tbl.(probe t.names tbl h name (home t h tbl)) <- empty;
      t.used.(shard) <- t.used.(shard) - 1;
      t.names.(eid) <- ""
    done;
    t.count <- n

  let max_probe t =
    let longest = ref 0 in
    for eid = 0 to t.count - 1 do
      let name = t.names.(eid) in
      let h = Hashtbl.hash name in
      let tbl = t.tables.(h mod t.shards) in
      let start = home t h tbl in
      let run = ((probe t.names tbl h name start - start) land (Array.length tbl - 1)) + 1 in
      longest := max !longest run
    done;
    !longest
end

type 'hot t = {
  directory : Directory.t;
  mutable shares : int array;
      (* [shares.(eid)]: [>= 0] is a cold eid's starting share; [-1 - k]
         points at its core, [cores.(k)] *)
  mutable cores : 'hot core array;
      (* the touched cores, [cores.(0 .. touched - 1)]: appended in touch
         order, sorted by eid when iterated *)
  mutable touched : int;
  mutable sorted : bool;
  mutable n : int;
  mutable hot_n : int;
}

let create ?directory ?shards ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Entity_map.create: capacity must be >= 1";
  let directory =
    match directory with
    | Some d -> d
    | None -> Directory.create ?shards ~capacity ()
  in
  {
    directory;
    shares = Array.make (max 8 capacity) 0;
    cores = [||];
    touched = 0;
    sorted = true;
    n = 0;
    hot_n = 0;
  }

let length t = t.n
let hot_count t = t.hot_n

let append t ~first_eid ~count =
  if first_eid <> t.n then invalid_arg "Entity_map.append: eids must arrive in order";
  if count < 0 || first_eid + count > Directory.length t.directory then
    invalid_arg "Entity_map.append: eid not in the directory";
  (* Slots past [n] are never written, so they already read as share 0. *)
  let cap = Array.length t.shares in
  if t.n + count > cap then
    t.shares <- Array.append t.shares (Array.make (max count cap) 0);
  t.n <- t.n + count

let check_eid t eid =
  if eid < 0 || eid >= t.n then invalid_arg "Entity_map: eid out of range"

let set_share t eid tokens =
  check_eid t eid;
  if tokens < 0 then invalid_arg "Entity_map.set_share: negative tokens";
  if t.shares.(eid) < 0 then invalid_arg "Entity_map.set_share: entity already touched";
  t.shares.(eid) <- tokens

(* Materialise [eid]'s core from its starting share on first touch. Only
   the lane that owns the arena may call this. *)
let touch t eid =
  let share = t.shares.(eid) in
  if share < 0 then t.cores.(-1 - share)
  else begin
    let core =
      {
        name = Directory.name t.directory eid;
        eid;
        tokens_left = share;
        acquired_net = 0;
        tokens_wanted = 0;
        exposed = false;
        hot = None;
      }
    in
    let k = t.touched in
    if k = Array.length t.cores then
      t.cores <- Array.append t.cores (Array.make (max 8 k) core);
    if k > 0 && t.cores.(k - 1).eid > eid then t.sorted <- false;
    t.cores.(k) <- core;
    t.touched <- k + 1;
    t.shares.(eid) <- -1 - k;
    core
  end

let by_eid t eid =
  check_eid t eid;
  touch t eid

let register t ~entity ~tokens =
  if tokens < 0 then invalid_arg "Entity_map.register: negative tokens";
  if t.n <> Directory.length t.directory then
    invalid_arg "Entity_map.register: arena lags its directory";
  let eid = Directory.add t.directory entity in
  append t ~first_eid:eid ~count:1;
  t.shares.(eid) <- tokens;
  touch t eid

(* The directory's eid, if this arena has reached it (an arena on a
   shared directory may lag it). *)
let eid t name =
  let eid = Directory.find t.directory name in
  if eid < t.n then eid else -1

let find t name = match eid t name with -1 -> None | eid -> Some (touch t eid)

let peek t name =
  match eid t name with
  | -1 -> None
  | eid ->
      let share = t.shares.(eid) in
      if share < 0 then Some t.cores.(-1 - share) else None

(* One slot answers every ledger read: a cold eid has its share left,
   and has acquired and wants nothing. *)
let tokens_left t eid =
  check_eid t eid;
  let share = t.shares.(eid) in
  if share >= 0 then share else t.cores.(-1 - share).tokens_left

let acquired_net t eid =
  check_eid t eid;
  let share = t.shares.(eid) in
  if share >= 0 then 0 else t.cores.(-1 - share).acquired_net

let tokens_wanted t eid =
  check_eid t eid;
  let share = t.shares.(eid) in
  if share >= 0 then 0 else t.cores.(-1 - share).tokens_wanted

let set_hot t core state =
  (match core.hot with None -> t.hot_n <- t.hot_n + 1 | Some _ -> ());
  core.hot <- Some state

(* Dense-eid order, so iteration is deterministic and independent of both
   the shard count and the order in which the lane touched entities.
   Sorting builds a fresh vector: an [iter] nested in [f] may sort again
   without disturbing the outer walk. *)
let iter f t =
  if not t.sorted then begin
    let cores = Array.sub t.cores 0 t.touched in
    Array.sort (fun a b -> Int.compare a.eid b.eid) cores;
    Array.iteri (fun k core -> t.shares.(core.eid) <- -1 - k) cores;
    t.cores <- cores;
    t.sorted <- true
  end;
  let cores = t.cores in
  for k = 0 to t.touched - 1 do
    f cores.(k)
  done

let iter_hot f t =
  iter (fun core -> match core.hot with Some h -> f core h | None -> ()) t
