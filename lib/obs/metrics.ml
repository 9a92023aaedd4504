(* Log-bucketed histogram geometry: bucket 0 holds v <= lo, bucket i holds
   lo * gamma^(i-1) < v <= lo * gamma^i. With gamma = 2^(1/4) and 160
   buckets the range runs from 1e-3 up past 1e9 — nine decades at <10%
   relative quantile error. *)
let lo = 0.001
let gamma = Float.pow 2.0 0.25
let n_buckets = 160
let inv_log_gamma = 1.0 /. Float.log gamma

let bucket_of v =
  if not (v > lo) then 0
  else
    let i = 1 + int_of_float (Float.floor (Float.log (v /. lo) *. inv_log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

let bucket_upper_bound i = if i <= 0 then lo else lo *. Float.pow gamma (float_of_int i)

(* Every instrument keeps one cell per lane (index lane + 1): a write
   touches only the executing lane's cell, and reads combine the cells.
   Counters sum; a gauge's last value is the write with the highest
   (epoch, lane); a histogram logs its observations per lane and folds
   them in (epoch, lane, sequence) order on read, so even the float [sum]
   is the one a single domain would have accumulated. *)
type counter = { c_clock : Lane_log.clock; c_cells : int array }

type gauge = {
  g_clock : Lane_log.clock;
  g_last : float array;
  g_max : float array;
  g_epoch : int array; (* epoch of the lane's last write; -1 = never *)
}

type histogram = float Lane_log.t

(* Interning may happen mid-window on any lane (instrumented code resolves
   by name), so the name tables sit behind a lock; updates never take it. *)
type t = {
  clock : Lane_log.clock;
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create clock =
  {
    clock;
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let intern t table make name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some cell -> cell
      | None ->
          let cell = make () in
          Hashtbl.add table name cell;
          cell)

let cells t = t.clock.Lane_log.lanes + 1

let counter t name =
  intern t t.counters (fun () -> { c_clock = t.clock; c_cells = Array.make (cells t) 0 }) name

let add c n =
  let i = c.c_clock.Lane_log.lane () + 1 in
  c.c_cells.(i) <- c.c_cells.(i) + n

let incr c = add c 1
let counter_value c = Array.fold_left ( + ) 0 c.c_cells

let gauge t name =
  intern t t.gauges
    (fun () ->
      {
        g_clock = t.clock;
        g_last = Array.make (cells t) 0.0;
        g_max = Array.make (cells t) 0.0;
        g_epoch = Array.make (cells t) (-1);
      })
    name

let set g v =
  let i = g.g_clock.Lane_log.lane () + 1 in
  if g.g_epoch.(i) < 0 || v > g.g_max.(i) then g.g_max.(i) <- v;
  g.g_last.(i) <- v;
  g.g_epoch.(i) <- g.g_clock.Lane_log.epoch ()

(* [(last, max)] over the written lanes. The last write is the one with
   the highest (epoch, lane): on equal epochs the higher lane drained
   later. *)
let gauge_read g =
  let last = ref (-1) and max = ref Float.nan in
  Array.iteri
    (fun i e ->
      if e >= 0 then begin
        if !last < 0 || e >= g.g_epoch.(!last) then last := i;
        if Float.is_nan !max || g.g_max.(i) > !max then max := g.g_max.(i)
      end)
    g.g_epoch;
  if !last < 0 then None else Some (g.g_last.(!last), !max)

let gauge_value g = Option.map fst (gauge_read g)
let gauge_max g = Option.map snd (gauge_read g)

let histogram t name = intern t t.histograms (fun () -> Lane_log.create t.clock) name

let observe h v = if not (Float.is_nan v) then Lane_log.push h v

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (int * int) list;
}

let snapshot_histogram h =
  let counts = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0.0 and lo = ref Float.nan and hi = ref Float.nan in
  List.iter
    (fun v ->
      let i = bucket_of v in
      counts.(i) <- counts.(i) + 1;
      Stdlib.incr count;
      sum := !sum +. v;
      if !count = 1 || v < !lo then lo := v;
      if !count = 1 || v > !hi then hi := v)
    (Lane_log.to_list h);
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if counts.(i) > 0 then buckets := (i, counts.(i)) :: !buckets
  done;
  { count = !count; sum = !sum; min = !lo; max = !hi; buckets = !buckets }

let merge a b =
  let rec merge_buckets xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (i, ci) :: xs', (j, cj) :: ys' ->
        if i < j then (i, ci) :: merge_buckets xs' ys
        else if j < i then (j, cj) :: merge_buckets xs ys'
        else (i, ci + cj) :: merge_buckets xs' ys'
  in
  let pick_min a b =
    if Float.is_nan a then b else if Float.is_nan b then a else Float.min a b
  in
  let pick_max a b =
    if Float.is_nan a then b else if Float.is_nan b then a else Float.max a b
  in
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    min = pick_min a.min b.min;
    max = pick_max a.max b.max;
    buckets = merge_buckets a.buckets b.buckets;
  }

let quantile s q =
  if s.count = 0 then Float.nan
  else
    let target =
      let t = int_of_float (Float.ceil (q *. float_of_int s.count)) in
      if t < 1 then 1 else if t > s.count then s.count else t
    in
    let rec scan acc = function
      | [] -> s.max
      | (i, c) :: rest ->
          let acc = acc + c in
          if acc >= target then bucket_upper_bound i else scan acc rest
    in
    scan 0 s.buckets

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float * float) list;
  histograms : (string * histogram_snapshot) list;
}

let sorted table f =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (name, v) -> f name v)

let snapshot (t : t) : snapshot =
  {
    counters = sorted t.counters (fun name c -> Some (name, counter_value c));
    gauges =
      sorted t.gauges (fun name g ->
          Option.map (fun (last, max) -> (name, last, max)) (gauge_read g));
    histograms = sorted t.histograms (fun name h -> Some (name, snapshot_histogram h));
  }
