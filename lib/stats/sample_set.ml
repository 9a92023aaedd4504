(* The running sum sits in a record of its own: a float-only record
   stores its field unboxed, so [add] updates it without allocating (a
   float field of [t], a mixed record, would box every new sum). *)
type sum = { mutable total : float }

type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
  sum : sum;
}

let create () = { data = [||]; size = 0; sorted = true; sum = { total = 0.0 } }

let add t x =
  if t.size = Array.length t.data then begin
    let capacity = max 64 (2 * Array.length t.data) in
    let data = Array.make capacity 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false;
  t.sum.total <- t.sum.total +. x

let count t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Sample_set.get";
  t.data.(i)

(* A merge sort on [Float.compare] rather than a heap sort through the
   polymorphic [compare]: both use the same total order (NaN first, then
   -inf .. +inf), so the sorted values — and every percentile — are the
   same; only ties can land in another order, and tied floats are equal
   (bar the sign of a zero). An exact-size set (from [concat] or
   [partition]) sorts its array in place, with no copy. *)
let ensure_sorted t =
  if not t.sorted then begin
    if Array.length t.data = t.size then Array.stable_sort Float.compare t.data
    else begin
      let live = Array.sub t.data 0 t.size in
      Array.stable_sort Float.compare live;
      Array.blit live 0 t.data 0 t.size
    end;
    t.sorted <- true
  end

let percentile t p =
  if Float.is_nan p then
    invalid_arg (Printf.sprintf "Sample_set.percentile: p must be a number (got %g)" p);
  if p < 0.0 || p > 100.0 then invalid_arg "Sample_set.percentile";
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
  end

let median t = percentile t 50.0

let mean t = if t.size = 0 then nan else t.sum.total /. float_of_int t.size

let max_value t = percentile t 100.0

(* The sum runs over the array left to right from 0.0: the association
   [add] gives the same samples added in this order, bit for bit. *)
let of_array data =
  let total = ref 0.0 in
  for i = 0 to Array.length data - 1 do
    total := !total +. data.(i)
  done;
  { data; size = Array.length data; sorted = false; sum = { total = !total } }

let concat parts =
  let data = Array.create_float (Array.fold_left (fun n s -> n + s.size) 0 parts) in
  let filled = ref 0 in
  Array.iter
    (fun s ->
      Array.blit s.data 0 data !filled s.size;
      filled := !filled + s.size)
    parts;
  of_array data

let partition parts ~tags ~sizes =
  let data = Array.map Array.create_float sizes in
  let filled = Array.make (Array.length sizes) 0 in
  Array.iteri
    (fun s part ->
      let tags = tags.(s) in
      for i = 0 to part.size - 1 do
        let k = Char.code (Bytes.get tags i) in
        data.(k).(filled.(k)) <- part.data.(i);
        filled.(k) <- filled.(k) + 1
      done)
    parts;
  if filled <> sizes then invalid_arg "Sample_set.partition: sizes do not match the tags";
  Array.map of_array data

let to_sorted_array t =
  ensure_sorted t;
  Array.sub t.data 0 t.size
