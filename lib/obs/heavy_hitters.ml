(* Misra-Gries heavy-hitters sketch over entity ids.

   The classic streaming top-k summary: at most [k] keys are tracked; an
   arrival of an untracked key while the table is full decrements every
   tracked counter instead (the batch form decrements by [min n m] where
   [m] is the smallest tracked count, then inserts the remainder). The
   total decrement depth is the sketch's one-sided error bound:

     estimate(key) <= true_count(key) <= estimate(key) + error

   where [estimate] is 0 for untracked keys.

   [merge] deliberately does NOT re-compress to [k] entries: it is the
   exact pointwise sum of counts plus the sum of error terms. That makes
   the merge algebra honest — commutative, associative, and lossless on
   disjoint key sets — which the qcheck suite verifies literally, and
   callers re-rank with [top] anyway. Sketches merged across many lanes
   can therefore hold more than [k] keys; [k] only bounds what each lane
   tracks online. *)

(* The online sketch keeps its keys and counts in two flat arrays,
   [keys.(0 .. n - 1)] and [counts.(0 .. n - 1)], in no particular
   order. [k] is small, so a linear scan (physical equality first, then
   [String.equal]) finds a key without hashing it, and a tracked hit or
   a decrement round writes in place and allocates nothing. The arrays
   grow only past [k], which only a merged sketch does. *)
type t = {
  k : int;
  mutable keys : string array;
  mutable counts : int array;
  mutable n : int;
  mutable decrements : int;
  mutable total : int;
}

let create ~k () =
  if k <= 0 then
    invalid_arg (Printf.sprintf "Heavy_hitters.create: k must be positive (got %d)" k);
  { k; keys = Array.make k ""; counts = Array.make k 0; n = 0; decrements = 0; total = 0 }

let copy t =
  { t with keys = Array.copy t.keys; counts = Array.copy t.counts }

(* The key's position at or after [i], or [-1] if untracked. *)
let rec index t key i =
  if i = t.n then -1
  else
    let s = Array.unsafe_get t.keys i in
    if s == key || String.equal s key then i else index t key (i + 1)

(* Track a new key with [count], growing the arrays when full. *)
let push t key count =
  if t.n = Array.length t.keys then begin
    let cap = max 8 (2 * t.n) in
    let keys = Array.make cap "" and counts = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.n;
    Array.blit t.counts 0 counts 0 t.n;
    t.keys <- keys;
    t.counts <- counts
  end;
  t.keys.(t.n) <- key;
  t.counts.(t.n) <- count;
  t.n <- t.n + 1

let min_tracked t =
  let m = ref max_int in
  for i = 0 to t.n - 1 do
    m := min !m t.counts.(i)
  done;
  !m

let observe ?(count = 1) t key =
  if count > 0 then begin
    t.total <- t.total + count;
    let i = index t key 0 in
    if i >= 0 then t.counts.(i) <- t.counts.(i) + count
    else if t.n < t.k then push t key count
    else begin
      (* Table full: absorb as much of the batch as the smallest tracked
         count allows, decrementing everyone in lockstep; the keys that
         reach zero are compacted out. *)
      let d = min count (min_tracked t) in
      let kept = ref 0 in
      for i = 0 to t.n - 1 do
        let c = t.counts.(i) - d in
        if c > 0 then begin
          t.keys.(!kept) <- t.keys.(i);
          t.counts.(!kept) <- c;
          incr kept
        end
      done;
      Array.fill t.keys !kept (t.n - !kept) "";
      t.n <- !kept;
      t.decrements <- t.decrements + d;
      let rest = count - d in
      if rest > 0 then push t key rest
    end
  end

let merge a b =
  let m = { (copy a) with k = max a.k b.k } in
  let at = Hashtbl.create (2 * (a.n + b.n)) in
  for i = 0 to m.n - 1 do
    Hashtbl.replace at m.keys.(i) i
  done;
  for j = 0 to b.n - 1 do
    match Hashtbl.find_opt at b.keys.(j) with
    | Some i -> m.counts.(i) <- m.counts.(i) + b.counts.(j)
    | None -> push m b.keys.(j) b.counts.(j)
  done;
  m.decrements <- a.decrements + b.decrements;
  m.total <- a.total + b.total;
  m

let estimate t key = match index t key 0 with -1 -> 0 | i -> t.counts.(i)
let error t = t.decrements
let total t = t.total
let tracked t = t.n

let top ?n t =
  let all = List.init t.n (fun i -> (t.keys.(i), t.counts.(i))) in
  let sorted =
    List.sort
      (fun (ka, ca) (kb, cb) ->
        if ca <> cb then compare cb ca else String.compare ka kb)
      all
  in
  match n with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

(* Canonical value for structural comparison in tests. *)
let dump t = (t.k, t.decrements, t.total, top t)

(* Tumbling windows, sharded by engine lane.

   Each lane writes only its own slot (no cross-domain sharing), and
   every read-side view merges the lanes in lane order — so the merged
   result is identical whether the run used 0, 1 or N worker domains.
   Window starts are aligned to multiples of [window_ms] of virtual
   time, which every lane computes identically from its own clock. *)
module Windowed = struct
  let create_sketch = create
  let observe_sketch = observe

  type lane_state = {
    mutable cur : t option;
    mutable cur_start : float;
    mutable closed : (float * t) list; (* newest first *)
  }

  type w = {
    wk : int;
    window_ms : float;
    mutable lanes : lane_state array; (* index lane+1; slot 0 = lane -1 *)
  }

  let create ~k ~window_ms () =
    (* Each lane builds its sketch on its first observation: refuse a bad
       [k] here, not inside a lane's window. *)
    if k <= 0 then
      invalid_arg
        (Printf.sprintf "Heavy_hitters.Windowed.create: k must be positive (got %d)" k);
    (* NaN-safe: an infinite window would align every start to NaN. *)
    if not (window_ms > 0.0 && window_ms < infinity) then
      invalid_arg
        (Printf.sprintf
           "Heavy_hitters.Windowed.create: window_ms must be positive and finite (got %g)"
           window_ms);
    { wk = k; window_ms; lanes = [||] }

  let fresh_lane () = { cur = None; cur_start = 0.0; closed = [] }

  let grow w n =
    let have = Array.length w.lanes in
    if n > have then
      w.lanes <-
        Array.init n (fun i -> if i < have then w.lanes.(i) else fresh_lane ())

  let reserve w ~lanes = grow w (lanes + 1)

  let lane_state w lane =
    let idx = lane + 1 in
    if idx < 0 then invalid_arg "Heavy_hitters.Windowed.observe: lane < -1";
    if idx >= Array.length w.lanes then grow w (idx + 1);
    w.lanes.(idx)

  let aligned w now_ms =
    w.window_ms *. Float.of_int (int_of_float (now_ms /. w.window_ms))

  let observe w ~lane ~now_ms key =
    let ls = lane_state w lane in
    (match ls.cur with
    | Some cur when now_ms < ls.cur_start +. w.window_ms ->
        observe_sketch cur key
    | Some cur ->
        ls.closed <- (ls.cur_start, cur) :: ls.closed;
        let sk = create_sketch ~k:w.wk () in
        observe_sketch sk key;
        ls.cur <- Some sk;
        ls.cur_start <- aligned w now_ms
    | None ->
        let sk = create_sketch ~k:w.wk () in
        observe_sketch sk key;
        ls.cur <- Some sk;
        ls.cur_start <- aligned w now_ms)

  (* All (start, sketch) pairs of one lane, oldest first. *)
  let lane_windows ls =
    let all =
      match ls.cur with
      | None -> ls.closed
      | Some cur -> (ls.cur_start, cur) :: ls.closed
    in
    List.rev all

  let windows w =
    let merged = Hashtbl.create 16 in
    let starts = ref [] in
    Array.iter
      (fun ls ->
        List.iter
          (fun (start, sk) ->
            match Hashtbl.find_opt merged start with
            | Some acc -> Hashtbl.replace merged start (merge acc sk)
            | None ->
                starts := start :: !starts;
                Hashtbl.add merged start (copy sk))
          (lane_windows ls))
      w.lanes;
    List.sort compare !starts
    |> List.map (fun start -> (start, Hashtbl.find merged start))

  let cumulative w =
    let acc = ref (create_sketch ~k:w.wk ()) in
    List.iter (fun (_, sk) -> acc := merge !acc sk) (windows w);
    !acc

  (* The merged window containing virtual time [ts], if any lane saw
     traffic in it. *)
  let at w ~ts =
    let rec find = function
      | [] -> None
      | (start, sk) :: rest ->
          if ts >= start && ts < start +. w.window_ms then Some (start, sk)
          else find rest
    in
    find (windows w)
end
