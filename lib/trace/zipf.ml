(* Zipfian rank sampler over a fixed universe of n keys.

   The distribution is materialised once as a normalised CDF over ranks
   (weight of rank r is 1 / (r+1)^theta, so popularity is strictly
   monotone in rank) and sampled by binary search — O(n) setup, O(log n)
   per draw, which is what makes million-key streams cheap to generate.
   All randomness comes from the caller's {!Des.Rng}, so streams replay
   bit-for-bit at any seed. *)

type t = { n : int; theta : float; cdf : float array }

let create ?(theta = 0.99) n =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if theta < 0.0 then invalid_arg "Zipf.create: theta must be >= 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** theta));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  (* Guard against accumulated rounding: the last bucket must cover 1. *)
  cdf.(n - 1) <- 1.0;
  { n; theta; cdf }

let theta t = t.theta

let probability t rank =
  if rank < 0 || rank >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if rank = 0 then t.cdf.(0) else t.cdf.(rank) -. t.cdf.(rank - 1)

let sample t rng =
  let u = Des.Rng.float rng 1.0 in
  (* First rank whose cumulative weight covers u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
