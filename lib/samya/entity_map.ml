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
  type t = {
    tables : (string, int) Hashtbl.t array;
    mutable names : string array;  (* eid -> name *)
    mutable count : int;
  }

  let create ?(shards = 1) ?(capacity = 16) () =
    if shards < 1 then invalid_arg "Entity_map.Directory.create: shards must be >= 1";
    if capacity < 1 then
      invalid_arg "Entity_map.Directory.create: capacity must be >= 1";
    let per_shard = max 8 (capacity / shards) in
    {
      tables = Array.init shards (fun _ -> Hashtbl.create per_shard);
      names = Array.make (max 8 capacity) "";
      count = 0;
    }

  let length t = t.count

  (* Shard selection must be independent of the shard tables' own bucket
     hashing (Hashtbl.hash = seeded_hash 0, masked by a power-of-two
     bucket count): with the unseeded hash here, every key in shard [s]
     shares its low bits, so each table uses 1/shards of its buckets and
     lookups degrade to linear chain scans (~30 us at a million keys).
     Any fixed seed <> 0 decorrelates the two; placement is not
     observable, so this choice cannot affect simulation output. *)
  let table t name =
    t.tables.(Hashtbl.seeded_hash 0x5eed name mod Array.length t.tables)

  let find t name = Hashtbl.find_opt (table t name) name

  let name t eid =
    if eid < 0 || eid >= t.count then
      invalid_arg "Entity_map.Directory.name: out of range";
    t.names.(eid)

  let add t name =
    let table = table t name in
    if Hashtbl.mem table name then
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
    Hashtbl.replace table name eid;
    eid

  let truncate t n =
    if n < 0 || n > t.count then
      invalid_arg "Entity_map.Directory.truncate: out of range";
    for eid = n to t.count - 1 do
      let name = t.names.(eid) in
      Hashtbl.remove (table t name) name;
      t.names.(eid) <- ""
    done;
    t.count <- n
end

type 'hot t = {
  directory : Directory.t;
  mutable cores : 'hot core array;
      (* [cores.(eid)] for [eid < n]; the slots past [n] hold [filler] *)
  filler : 'hot core;
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
  let filler =
    {
      name = "";
      eid = -1;
      tokens_left = 0;
      acquired_net = 0;
      tokens_wanted = 0;
      exposed = false;
      hot = None;
    }
  in
  { directory; cores = Array.make (max 8 capacity) filler; filler; n = 0; hot_n = 0 }

let length t = t.n
let hot_count t = t.hot_n

(* One directory lookup, then this arena's slot — if it has reached the
   eid (an arena on a shared directory may lag it). *)
let find t name =
  match Hashtbl.find (Directory.table t.directory name) name with
  | eid when eid < t.n -> Some t.cores.(eid)
  | _ -> None
  | exception Not_found -> None

let by_eid t eid =
  if eid < 0 || eid >= t.n then invalid_arg "Entity_map.by_eid: out of range";
  t.cores.(eid)

let append t ~eid ~tokens =
  if eid <> t.n then invalid_arg "Entity_map.append: eids must arrive in order";
  if tokens < 0 then invalid_arg "Entity_map.append: negative tokens";
  let name = Directory.name t.directory eid in
  let cap = Array.length t.cores in
  if t.n >= cap then begin
    let next = Array.make (cap * 2) t.filler in
    Array.blit t.cores 0 next 0 cap;
    t.cores <- next
  end;
  let core =
    {
      name;
      eid;
      tokens_left = tokens;
      acquired_net = 0;
      tokens_wanted = 0;
      exposed = false;
      hot = None;
    }
  in
  t.cores.(eid) <- core;
  t.n <- eid + 1;
  core

let register t ~entity ~tokens =
  if tokens < 0 then invalid_arg "Entity_map.register: negative tokens";
  if t.n <> Directory.length t.directory then
    invalid_arg "Entity_map.register: arena lags its directory";
  append t ~eid:(Directory.add t.directory entity) ~tokens

let set_hot t core state =
  (match core.hot with None -> t.hot_n <- t.hot_n + 1 | Some _ -> ());
  core.hot <- Some state

(* Iteration is in dense-eid (registration) order, so it is deterministic
   and independent of the shard count — shards only bound hash-table size. *)
let iter f t =
  for i = 0 to t.n - 1 do
    f t.cores.(i)
  done

let iter_hot f t =
  for i = 0 to t.n - 1 do
    match t.cores.(i) with { hot = Some h; _ } as c -> f c h | _ -> ()
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun c -> acc := f c !acc) t;
  !acc
