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
     [int array] of eids ([empty] marks a free slot) and a probe compares
     against [names]. Every table holds exactly what inserting its eids in
     increasing order would leave (growth re-inserts in eid order), so
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

  (* The slot of [name] in [tbl], or the free slot where it would go. *)
  let rec probe names tbl name i =
    let eid = Array.unsafe_get tbl i in
    if eid = empty || String.equal (Array.unsafe_get names eid) name then i
    else probe names tbl name ((i + 1) land (Array.length tbl - 1))

  let find t name =
    let h = Hashtbl.hash name in
    let tbl = t.tables.(h mod t.shards) in
    tbl.(probe t.names tbl name (home t h tbl))

  let name t eid =
    if eid < 0 || eid >= t.count then
      invalid_arg "Entity_map.Directory.name: out of range";
    t.names.(eid)

  let place t tbl eid =
    let name = t.names.(eid) in
    let h = Hashtbl.hash name in
    tbl.(probe t.names tbl name (home t h tbl)) <- eid

  let grow t shard =
    let old = t.tables.(shard) in
    let eids =
      Array.of_list
        (Array.fold_left (fun acc e -> if e = empty then acc else e :: acc) [] old)
    in
    Array.sort Int.compare eids;
    let tbl = Array.make (2 * Array.length old) empty in
    Array.iter (place t tbl) eids;
    t.tables.(shard) <- tbl

  let add t name =
    let h = Hashtbl.hash name in
    let shard = h mod t.shards in
    let tbl = t.tables.(shard) in
    let slot = probe t.names tbl name (home t h tbl) in
    if tbl.(slot) <> empty then
      invalid_arg ("Entity_map.Directory.add: duplicate entity " ^ name);
    let cap = Array.length t.names in
    if t.count >= cap then begin
      let next = Array.make (cap * 2) "" in
      Array.blit t.names 0 next 0 cap;
      t.names <- next
    end;
    let eid = t.count in
    t.names.(eid) <- name;
    t.count <- eid + 1;
    tbl.(slot) <- eid;
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
      tbl.(probe t.names tbl name (home t h tbl)) <- empty;
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
      let run = ((probe t.names tbl name start - start) land (Array.length tbl - 1)) + 1 in
      longest := max !longest run
    done;
    !longest
end

type 'hot t = {
  directory : Directory.t;
  mutable shares : int array;
      (* [shares.(eid)]: the starting tokens of an eid whose core does not
         exist yet *)
  mutable cores : 'hot core array;
      (* [cores.(eid)] once the owning lane touched [eid], [cold] before *)
  cold : 'hot core;
      (* the shared sentinel of untouched slots: its ledger reads as a
         never-touched entity's (no acquisitions, nothing wanted) *)
  mutable n : int;
  mutable touched : int list;  (* eids with a core, ascending if [sorted] *)
  mutable sorted : bool;
  mutable hot_n : int;
}

let fresh ~name ~eid ~tokens =
  {
    name;
    eid;
    tokens_left = tokens;
    acquired_net = 0;
    tokens_wanted = 0;
    exposed = false;
    hot = None;
  }

let create ?directory ?shards ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Entity_map.create: capacity must be >= 1";
  let directory =
    match directory with
    | Some d -> d
    | None -> Directory.create ?shards ~capacity ()
  in
  let cold = fresh ~name:"" ~eid:(-1) ~tokens:0 in
  let capacity = max 8 capacity in
  {
    directory;
    shares = Array.make capacity 0;
    cores = Array.make capacity cold;
    cold;
    n = 0;
    touched = [];
    sorted = true;
    hot_n = 0;
  }

let length t = t.n
let hot_count t = t.hot_n

let append t ~first_eid shares =
  let k = Array.length shares in
  if first_eid <> t.n then invalid_arg "Entity_map.append: eids must arrive in order";
  if first_eid + k > Directory.length t.directory then
    invalid_arg "Entity_map.append: eid not in the directory";
  if Array.exists (fun tokens -> tokens < 0) shares then
    invalid_arg "Entity_map.append: negative tokens";
  let cap = Array.length t.shares in
  if t.n + k > cap then begin
    let cap' = max (t.n + k) (2 * cap) in
    let shares' = Array.make cap' 0 and cores' = Array.make cap' t.cold in
    Array.blit t.shares 0 shares' 0 t.n;
    Array.blit t.cores 0 cores' 0 t.n;
    t.shares <- shares';
    t.cores <- cores'
  end;
  Array.blit shares 0 t.shares t.n k;
  t.n <- t.n + k

(* Materialise [eid]'s core from its starting share on first touch. Only
   the lane that owns the arena may call this. *)
let touch t eid =
  let core = t.cores.(eid) in
  if core != t.cold then core
  else begin
    let core =
      fresh ~name:(Directory.name t.directory eid) ~eid ~tokens:t.shares.(eid)
    in
    t.cores.(eid) <- core;
    t.touched <- eid :: t.touched;
    t.sorted <- false;
    core
  end

let by_eid t eid =
  if eid < 0 || eid >= t.n then invalid_arg "Entity_map.by_eid: out of range";
  touch t eid

let register t ~entity ~tokens =
  if tokens < 0 then invalid_arg "Entity_map.register: negative tokens";
  if t.n <> Directory.length t.directory then
    invalid_arg "Entity_map.register: arena lags its directory";
  let eid = Directory.add t.directory entity in
  append t ~first_eid:eid [| tokens |];
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
      let core = t.cores.(eid) in
      if core == t.cold then None else Some core

(* The core in an appended eid's slot: the [cold] sentinel, whose zero
   [acquired_net] and [tokens_wanted] are a cold entity's, or its own. *)
let slot t eid =
  if eid < 0 || eid >= t.n then invalid_arg "Entity_map: eid out of range";
  t.cores.(eid)

let tokens_left t eid =
  let core = slot t eid in
  if core == t.cold then t.shares.(eid) else core.tokens_left

let acquired_net t eid = (slot t eid).acquired_net
let tokens_wanted t eid = (slot t eid).tokens_wanted

let set_hot t core state =
  (match core.hot with None -> t.hot_n <- t.hot_n + 1 | Some _ -> ());
  core.hot <- Some state

(* Dense-eid order, so iteration is deterministic and independent of both
   the shard count and the order in which the lane touched entities. *)
let iter f t =
  if not t.sorted then begin
    t.touched <- List.sort Int.compare t.touched;
    t.sorted <- true
  end;
  List.iter (fun eid -> f t.cores.(eid)) t.touched

let iter_hot f t =
  iter (fun core -> match core.hot with Some h -> f core h | None -> ()) t
