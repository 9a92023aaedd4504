(* Same fixed log-bucket idea as [Metrics], but finer (gamma = 2^(1/8),
   <9% relative error) and value-shaped: a sketch is a standalone value
   with a total, associative, commutative [merge]. No sum is tracked —
   float addition is not associative, and keeping the state to (buckets,
   count, min, max) makes merge algebraically exact, which the qcheck
   algebra tests rely on. *)

let lo = 0.001
let gamma = Float.pow 2.0 0.125
let n_buckets = 320
let inv_log_gamma = 1.0 /. Float.log gamma

let bucket_of v =
  if not (v > lo) then 0
  else
    let i = 1 + int_of_float (Float.floor (Float.log (v /. lo) *. inv_log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

let bucket_upper_bound i = if i <= 0 then lo else lo *. Float.pow gamma (float_of_int i)

type t = {
  buckets : int array;
  mutable count : int;
  mutable min : float;
  mutable max : float;
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; min = Float.nan; max = Float.nan }

let clear t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.min <- Float.nan;
  t.max <- Float.nan

let add t v =
  if not (Float.is_nan v) then begin
    let i = bucket_of v in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    if t.count = 1 then begin
      t.min <- v;
      t.max <- v
    end
    else begin
      if v < t.min then t.min <- v;
      if v > t.max then t.max <- v
    end
  end

let count t = t.count
let min_value t = t.min
let max_value t = t.max

let pick_min a b =
  if Float.is_nan a then b else if Float.is_nan b then a else Float.min a b

let pick_max a b =
  if Float.is_nan a then b else if Float.is_nan b then a else Float.max a b

let merge a b =
  {
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    count = a.count + b.count;
    min = pick_min a.min b.min;
    max = pick_max a.max b.max;
  }

let equal a b =
  a.count = b.count
  && a.buckets = b.buckets
  && (Float.equal a.min b.min || (Float.is_nan a.min && Float.is_nan b.min))
  && (Float.equal a.max b.max || (Float.is_nan a.max && Float.is_nan b.max))

let quantile t q =
  if t.count = 0 then Float.nan
  else begin
    let target =
      let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let acc = ref 0 and i = ref 0 and result = ref t.max in
    (try
       while !i < n_buckets do
         acc := !acc + t.buckets.(!i);
         if !acc >= target then begin
           result := bucket_upper_bound !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    (* The true rank-[target] sample lies in the found bucket, so clamping
       to the observed extrema only ever tightens the answer. *)
    Float.min t.max (Float.max t.min !result)
  end
