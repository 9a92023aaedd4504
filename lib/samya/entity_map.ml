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
    shard_bits : int;  (* log2 of the shard count, a power of two *)
    tables : int array array;
    used : int array;  (* names per shard *)
    mutable names : string array;  (* eid -> name *)
    mutable maxima : int array;  (* eid -> the key's maximum *)
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
    let rec log2_ceil b = if 1 lsl b >= shards then b else log2_ceil (b + 1) in
    let shard_bits = log2_ceil 0 in
    let shards = 1 lsl shard_bits in
    let per_shard = (capacity + shards - 1) / shards in
    {
      shard_bits;
      tables = Array.init shards (fun _ -> Array.make (table_size per_shard) empty);
      used = Array.make shards 0;
      names = Array.make (max 8 capacity) "";
      maxima = Array.make (max 8 capacity) 0;
      count = 0;
    }

  let length t = t.count

  (* One hash per name. The shard is its low [shard_bits] bits and the
     home slot is drawn from the bits above them: taking both from the
     same low bits would leave every name of shard [s] on the 1/shards of
     its table's slots congruent to [s], and probes would degrade into
     long runs. *)
  let[@inline] shard t h = h land ((1 lsl t.shard_bits) - 1)
  let[@inline] home t h tbl = (h lsr t.shard_bits) land (Array.length tbl - 1)

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
    let tbl = t.tables.(shard t h) in
    let slot = tbl.(probe t.names tbl h name (home t h tbl)) in
    if slot = empty then -1 else slot land eid_mask

  let name t eid =
    if eid < 0 || eid >= t.count then
      invalid_arg "Entity_map.Directory.name: out of range";
    t.names.(eid)

  let maximum t eid =
    if eid < 0 || eid >= t.count then
      invalid_arg "Entity_map.Directory.maximum: out of range";
    t.maxima.(eid)

  let rec free tbl i =
    if tbl.(i) = empty then i else free tbl ((i + 1) land (Array.length tbl - 1))

  (* Double [shard]'s table: its occupied slots, sorted by eid, are
     re-placed in that order. *)
  let grow t shard =
    let old = t.tables.(shard) in
    let slots = Array.make t.used.(shard) empty in
    let n = ref 0 in
    Array.iter
      (fun s ->
        if s <> empty then begin
          slots.(!n) <- s;
          incr n
        end)
      old;
    Array.sort (fun a b -> Int.compare (a land eid_mask) (b land eid_mask)) slots;
    let tbl = Array.make (2 * Array.length old) empty in
    Array.iter (fun s -> tbl.(free tbl (home t (s lsr eid_bits) tbl)) <- s) slots;
    t.tables.(shard) <- tbl

  let add t name ~maximum =
    let eid = t.count in
    if eid > eid_mask then
      invalid_arg "Entity_map.Directory.add: eids must stay below 2^31";
    if maximum < 0 then invalid_arg "Entity_map.Directory.add: negative maximum";
    let h = Hashtbl.hash name in
    let shard = shard t h in
    let tbl = t.tables.(shard) in
    let slot = probe t.names tbl h name (home t h tbl) in
    if tbl.(slot) <> empty then
      invalid_arg ("Entity_map.Directory.add: duplicate entity " ^ name);
    if eid = Array.length t.names then begin
      t.names <- Array.append t.names (Array.make eid "");
      t.maxima <- Array.append t.maxima (Array.make eid 0)
    end;
    t.names.(eid) <- name;
    t.maxima.(eid) <- maximum;
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
      let shard = shard t h in
      let tbl = t.tables.(shard) in
      tbl.(probe t.names tbl h name (home t h tbl)) <- empty;
      t.used.(shard) <- t.used.(shard) - 1;
      t.names.(eid) <- "";
      t.maxima.(eid) <- 0
    done;
    t.count <- n

  let max_probe t =
    let longest = ref 0 in
    for eid = 0 to t.count - 1 do
      let name = t.names.(eid) in
      let h = Hashtbl.hash name in
      let tbl = t.tables.(shard t h) in
      let start = home t h tbl in
      let run = ((probe t.names tbl h name start - start) land (Array.length tbl - 1)) + 1 in
      longest := max !longest run
    done;
    !longest
end

type 'hot t = {
  directory : Directory.t;
  site : int;
  sites : int;  (* this arena's place in the equal split of every maximum *)
  mutable bitmap : Bytes.t;
      (* bit [eid] set iff this arena has touched [eid], grown by
         doubling to reach the highest touched eid. Read before [index],
         so a cold eid costs one sequential bit read, not a random probe *)
  mutable index : int array;
      (* the touched eids, open-addressed with linear probing over a
         power-of-two table: [vacant] or [eid lsl core_bits lor k] for an
         eid whose core is [cores.(k)] *)
  mutable shift : int;  (* 63 - log2 (length index): a home slot is the top bits *)
  mutable cores : 'hot core array;
      (* the touched cores, [cores.(0 .. n_cores - 1)]: appended in touch
         order, sorted by eid when iterated *)
  mutable n_cores : int;
  mutable sorted : bool;
  mutable hot_n : int;
  untouched : 'hot core;  (* {!touched}'s answer for a cold eid *)
}

let vacant = -1
let core_bits = 31
let core_mask = (1 lsl core_bits) - 1
let initial_bits = 4

(* Fibonacci hashing: the top bits of [eid] times an odd 63-bit constant
   near 2^63 / golden ratio. Consecutive eids land far apart, so a dense
   run of touched eids forms no probe cluster. *)
let[@inline] home t eid = (eid * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The run of occupied slots from [i] on: [eid]'s slot, or the vacant
   slot that ends the run. *)
let rec probe index eid i =
  let s = Array.unsafe_get index i in
  if s = vacant || s lsr core_bits = eid then i
  else probe index eid ((i + 1) land (Array.length index - 1))

(* [eid]'s slot in the touched index, or the vacant slot where it would
   go. The home slot settles most lookups, so only a collision walks the
   run. *)
let[@inline] locate t eid =
  let i = home t eid in
  let s = Array.unsafe_get t.index i in
  if s = vacant || s lsr core_bits = eid then i
  else probe t.index eid ((i + 1) land (Array.length t.index - 1))

(* Whether [eid]'s bit is set; [eid >= 0]. *)
let[@inline] marked t eid =
  let byte = eid lsr 3 in
  byte < Bytes.length t.bitmap
  && Char.code (Bytes.unsafe_get t.bitmap byte) land (1 lsl (eid land 7)) <> 0

(* [eid]'s core index [k], or [-1] if this arena has not touched it. *)
let[@inline] slot t eid =
  if not (marked t eid) then -1
  else Array.unsafe_get t.index (locate t eid) land core_mask

(* Set [eid]'s bit, doubling the bitmap until it reaches [eid]. *)
let mark t eid =
  let byte = eid lsr 3 in
  let len = Bytes.length t.bitmap in
  if byte >= len then begin
    let rec size n = if n > byte then n else size (2 * n) in
    let bitmap = Bytes.make (size (max 8 len)) '\000' in
    Bytes.blit t.bitmap 0 bitmap 0 len;
    t.bitmap <- bitmap
  end;
  Bytes.unsafe_set t.bitmap byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bitmap byte) lor (1 lsl (eid land 7))))

let bitmap_bits t = 8 * Bytes.length t.bitmap

let bits t = 63 - t.shift

(* Re-place every touched eid in a table of [2^bits] slots, [cores.(k)]
   at its current [k]. *)
let reindex t bits =
  t.index <- Array.make (1 lsl bits) vacant;
  t.shift <- 63 - bits;
  for k = 0 to t.n_cores - 1 do
    let eid = t.cores.(k).eid in
    t.index.(locate t eid) <- (eid lsl core_bits) lor k
  done

let create ?directory ?shards ?(capacity = 16) ?(site = 0) ?(sites = 1) () =
  if capacity < 1 then invalid_arg "Entity_map.create: capacity must be >= 1";
  if site < 0 || site >= sites then
    invalid_arg "Entity_map.create: site must be in [0, sites)";
  let directory =
    match directory with
    | Some d -> d
    | None -> Directory.create ?shards ~capacity ()
  in
  {
    directory;
    site;
    sites;
    bitmap = Bytes.empty;
    index = Array.make (1 lsl initial_bits) vacant;
    shift = 63 - initial_bits;
    cores = [||];
    n_cores = 0;
    sorted = true;
    hot_n = 0;
    untouched =
      {
        name = "";
        eid = -1;
        tokens_left = 0;
        acquired_net = 0;
        tokens_wanted = 0;
        exposed = false;
        hot = None;
      };
  }

let length t = Directory.length t.directory
let hot_count t = t.hot_n

let[@inline] check_eid t eid =
  if eid < 0 || eid >= t.directory.Directory.count then
    invalid_arg "Entity_map: eid out of range"

(* One division: the remainder is what the quotient leaves. *)
let[@inline] equal_share ~sites ~maximum site =
  let q = maximum / sites in
  q + if site < maximum - (q * sites) then 1 else 0

(* A cold eid's tokens here: this site's equal share of its maximum.
   Callers have checked [eid] against the directory. *)
let[@inline] share t eid =
  equal_share ~sites:t.sites ~maximum:(Array.unsafe_get t.directory.Directory.maxima eid) t.site

(* Give [eid], untouched, its core holding [tokens]; [i] is the vacant
   index slot [eid] probed to. Only the lane that owns the arena may call
   this. *)
let add_core t i eid tokens =
  let core =
    {
      name = Directory.name t.directory eid;
      eid;
      tokens_left = tokens;
      acquired_net = 0;
      tokens_wanted = 0;
      exposed = false;
      hot = None;
    }
  in
  let k = t.n_cores in
  if k = Array.length t.cores then
    t.cores <- Array.append t.cores (Array.make (max 8 k) t.untouched);
  if k > 0 && t.cores.(k - 1).eid > eid then t.sorted <- false;
  t.cores.(k) <- core;
  t.n_cores <- k + 1;
  t.index.(i) <- (eid lsl core_bits) lor k;
  mark t eid;
  if 2 * t.n_cores > Array.length t.index then reindex t (bits t + 1);
  core

(* Materialise [eid]'s core from its share on first touch. *)
let touch t eid =
  let i = locate t eid in
  let s = t.index.(i) in
  if s <> vacant then t.cores.(s land core_mask) else add_core t i eid (share t eid)

let by_eid t eid =
  check_eid t eid;
  touch t eid

let install t eid ~tokens =
  check_eid t eid;
  if tokens < 0 then invalid_arg "Entity_map.install: negative tokens";
  let i = locate t eid in
  if t.index.(i) <> vacant then invalid_arg "Entity_map.install: entity already touched";
  add_core t i eid tokens

let register t ~entity ~tokens =
  if tokens < 0 then invalid_arg "Entity_map.register: negative tokens";
  install t (Directory.add t.directory entity ~maximum:tokens) ~tokens

let eid t name = Directory.find t.directory name

let find t name = match eid t name with -1 -> None | eid -> Some (touch t eid)

let peek t name =
  match eid t name with
  | -1 -> None
  | eid -> ( match slot t eid with -1 -> None | k -> Some t.cores.(k))

let touched t eid =
  check_eid t eid;
  match slot t eid with -1 -> t.untouched | k -> t.cores.(k)

(* One probe answers every ledger read: a cold eid has its share left,
   and has acquired and wants nothing. *)
let tokens_left t eid =
  check_eid t eid;
  match slot t eid with -1 -> share t eid | k -> t.cores.(k).tokens_left

let acquired_net t eid =
  check_eid t eid;
  match slot t eid with -1 -> 0 | k -> t.cores.(k).acquired_net

let tokens_wanted t eid =
  check_eid t eid;
  match slot t eid with -1 -> 0 | k -> t.cores.(k).tokens_wanted

let set_hot t core state =
  (match core.hot with None -> t.hot_n <- t.hot_n + 1 | Some _ -> ());
  core.hot <- Some state

(* Dense-eid order, so iteration is deterministic and independent of both
   the shard count and the order in which the lane touched entities.
   Sorting builds a fresh vector: an [iter] nested in [f] may sort again
   without disturbing the outer walk. *)
let iter f t =
  if not t.sorted then begin
    let cores = Array.sub t.cores 0 t.n_cores in
    Array.sort (fun a b -> Int.compare a.eid b.eid) cores;
    t.cores <- cores;
    reindex t (bits t);
    t.sorted <- true
  end;
  let cores = t.cores in
  for k = 0 to t.n_cores - 1 do
    f cores.(k)
  done

let iter_hot f t =
  iter (fun core -> match core.hot with Some h -> f core h | None -> ()) t
