type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
  mutable sum : float;
}

let create () = { data = [||]; size = 0; sorted = true; sum = 0.0 }

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
  t.sum <- t.sum +. x

let count t = t.size

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.size in
    Array.sort compare live;
    Array.blit live 0 t.data 0 t.size;
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

let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size

let min_value t = percentile t 0.0

let max_value t = percentile t 100.0

(* Element-by-element append: the destination's running [sum] follows the
   same left-to-right association as if every sample had been [add]ed to
   it directly, so merged statistics are a deterministic function of the
   merge order alone. *)
let merge_into src ~into =
  for i = 0 to src.size - 1 do
    add into src.data.(i)
  done

let to_sorted_array t =
  ensure_sorted t;
  Array.sub t.data 0 t.size
