type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let of_arrays arrays =
  let rows = Array.length arrays in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length arrays.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    arrays;
  let m = create rows cols in
  for i = 0 to rows - 1 do
    Array.blit arrays.(i) 0 m.data (i * cols) cols
  done;
  m

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let random rng rows cols ~scale =
  init rows cols (fun _ _ -> Des.Rng.float rng (2.0 *. scale) -. scale)

let rows m = m.rows
let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.matmul: dimension mismatch";
  let out = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          out.data.((i * b.cols) + j) <-
            out.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  out

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let vec_mat v m =
  if Array.length v <> m.rows then invalid_arg "Matrix.vec_mat: dimension mismatch";
  Array.init m.cols (fun j ->
      let acc = ref 0.0 in
      for i = 0 to m.rows - 1 do
        acc := !acc +. (v.(i) *. m.data.((i * m.cols) + j))
      done;
      !acc)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let zip_with op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: shape mismatch";
  { a with data = Array.init (Array.length a.data) (fun i -> op a.data.(i) b.data.(i)) }

let add a b = zip_with ( +. ) a b
let sub a b = zip_with ( -. ) a b

let scale k m = { m with data = Array.map (fun x -> k *. x) m.data }

let map f m = { m with data = Array.map f m.data }

let add_in_place acc m =
  if acc.rows <> m.rows || acc.cols <> m.cols then
    invalid_arg "Matrix.add_in_place: shape mismatch";
  for i = 0 to Array.length acc.data - 1 do
    acc.data.(i) <- acc.data.(i) +. m.data.(i)
  done

let outer u v =
  let m = create (Array.length u) (Array.length v) in
  for i = 0 to Array.length u - 1 do
    for j = 0 to Array.length v - 1 do
      m.data.((i * m.cols) + j) <- u.(i) *. v.(j)
    done
  done;
  m

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let solve a b =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: matrix must be square";
  if Array.length b <> a.rows then invalid_arg "Matrix.solve: shape mismatch";
  let n = a.rows in
  let aug = Array.init n (fun i -> Array.init (n + 1) (fun j -> if j = n then b.(i) else get a i j)) in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry into the pivot. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs aug.(row).(col) > Float.abs aug.(!pivot).(col) then pivot := row
    done;
    if Float.abs aug.(!pivot).(col) < 1e-12 then failwith "Matrix.solve: singular system";
    if !pivot <> col then begin
      let tmp = aug.(col) in
      aug.(col) <- aug.(!pivot);
      aug.(!pivot) <- tmp
    end;
    for row = col + 1 to n - 1 do
      let factor = aug.(row).(col) /. aug.(col).(col) in
      if factor <> 0.0 then
        for j = col to n do
          aug.(row).(j) <- aug.(row).(j) -. (factor *. aug.(col).(j))
        done
    done
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref aug.(i).(n) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (aug.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. aug.(i).(i)
  done;
  x

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
