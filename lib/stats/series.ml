let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then nan
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let diff xs =
  let n = Array.length xs in
  if n <= 1 then [||]
  else Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i))

let undiff ~first deltas =
  let n = Array.length deltas in
  let out = Array.make (n + 1) first in
  for i = 0 to n - 1 do
    out.(i + 1) <- out.(i) +. deltas.(i)
  done;
  out

let moving_average k xs =
  if k <= 0 then invalid_arg "Series.moving_average: window must be positive";
  let n = Array.length xs in
  let out = Array.make n 0.0 in
  let running = ref 0.0 in
  for i = 0 to n - 1 do
    running := !running +. xs.(i);
    if i >= k then running := !running -. xs.(i - k);
    let width = min (i + 1) k in
    out.(i) <- !running /. float_of_int width
  done;
  out

let autocorrelation xs lag =
  let n = Array.length xs in
  if lag < 0 || lag >= n || n < 2 then nan
  else begin
    let m = mean xs in
    let num = ref 0.0 and den = ref 0.0 in
    for i = 0 to n - 1 do
      den := !den +. ((xs.(i) -. m) ** 2.0)
    done;
    for i = 0 to n - 1 - lag do
      num := !num +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
    done;
    if !den = 0.0 then nan else !num /. !den
  end

let split_at_fraction fraction xs =
  let fraction = Float.min 1.0 (Float.max 0.0 fraction) in
  let n = Array.length xs in
  let cut = int_of_float (Float.round (fraction *. float_of_int n)) in
  (Array.sub xs 0 cut, Array.sub xs cut (n - cut))

let windows ~input xs =
  let n = Array.length xs in
  if input <= 0 || n <= input then [||]
  else
    Array.init (n - input) (fun i -> (Array.sub xs i input, xs.(i + input)))
