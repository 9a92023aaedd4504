let check actual predicted =
  let n = Array.length actual in
  if n = 0 then invalid_arg "Metrics: empty input";
  if n <> Array.length predicted then invalid_arg "Metrics: length mismatch";
  n

let mae ~actual ~predicted =
  let n = check actual predicted in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (actual.(i) -. predicted.(i))
  done;
  !acc /. float_of_int n

let rmse ~actual ~predicted =
  let n = check actual predicted in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. ((actual.(i) -. predicted.(i)) ** 2.0)
  done;
  sqrt (!acc /. float_of_int n)
