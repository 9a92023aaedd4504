(* A scaler is the affine map x -> (x - shift) / span. *)
type t = { shift : float; span : float }

let fit_min_max ?(low = 0.0) ?(high = 1.0) xs =
  if Array.length xs = 0 then invalid_arg "Scaler.fit_min_max: empty";
  if high <= low then invalid_arg "Scaler.fit_min_max: empty target range";
  let lo = Array.fold_left Float.min infinity xs in
  let hi = Array.fold_left Float.max neg_infinity xs in
  if hi = lo then
    (* Constant series: map everything to the midpoint of the target. *)
    { shift = lo -. (((low +. high) /. 2.0) *. 1.0); span = 1.0 }
  else begin
    let span = (hi -. lo) /. (high -. low) in
    { shift = lo -. (low *. span); span }
  end

let fit_standard xs =
  if Array.length xs < 2 then invalid_arg "Scaler.fit_standard: need >= 2 points";
  let mean = Stats.Series.mean xs in
  let std = Stats.Series.stddev xs in
  let span = if std > 0.0 then std else 1.0 in
  { shift = mean; span }

let transform t x = (x -. t.shift) /. t.span

let inverse t y = (y *. t.span) +. t.shift

let transform_array t xs = Array.map (transform t) xs
