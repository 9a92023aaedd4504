(* The state lives unboxed in an 8-byte buffer and the mixer is inlined,
   so a draw allocates only its boxed result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* Mix function of SplitMix64: variant of MurmurHash3's 64-bit finaliser. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t =
  let seed = bits64 t in
  (* A second mix decorrelates the child stream from the parent's. *)
  create (mix64 seed)

(* Indexed stream derivation: a pure function of (seed, index), so lane
   [i] of a sharded engine gets the same stream no matter how many other
   lanes exist or in what order they are built. The [+ 1] keeps stream 0
   distinct from the root seed itself. *)
let stream_seed seed i =
  mix64 (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden_gamma))

let stream seed i = create (stream_seed seed i)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod n

let float t x =
  (* 53 random bits scaled to [0, 1), then to [0, x). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float bits /. 9007199254740992.0 in
  unit *. x

let bool t p = float t 1.0 < p

let gaussian t ~mean ~std =
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  let u1 = non_zero () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (std *. z)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  -.log (non_zero ()) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
