type model = {
  p : int;
  d : int;
  beta : float array; (* intercept :: AR coefficients *)
}

let rec difference times xs = if times = 0 then xs else difference (times - 1) (Stats.Series.diff xs)

(* Regressor vector for predicting the step after position [t] (inclusive
   end of history) of the differenced series [z]. *)
let regressors model z t =
  let row = Array.make (1 + model.p) 1.0 in
  for i = 1 to model.p do
    row.(i) <- z.(t - i + 1)
  done;
  row

let fit ?(p = 3) ?(d = 1) series =
  if p < 1 then invalid_arg "Arima.fit: p must be >= 1";
  if d < 0 then invalid_arg "Arima.fit: d must be >= 0";
  if Array.length series < p + d + 2 then invalid_arg "Arima.fit: series too short";
  let model0 = { p; d; beta = [||] } in
  let z = difference d series in
  let n = Array.length z in
  let terms = 1 + p in
  (* Normal equations with a small ridge for numerical stability. *)
  let xtx = Matrix.create terms terms in
  let xty = Array.make terms 0.0 in
  for t = p - 1 to n - 2 do
    let row = regressors model0 z t in
    let y = z.(t + 1) in
    for i = 0 to terms - 1 do
      xty.(i) <- xty.(i) +. (row.(i) *. y);
      for j = 0 to terms - 1 do
        Matrix.set xtx i j (Matrix.get xtx i j +. (row.(i) *. row.(j)))
      done
    done
  done;
  for i = 0 to terms - 1 do
    Matrix.set xtx i i (Matrix.get xtx i i +. 1e-6)
  done;
  let beta = Matrix.solve xtx xty in
  { model0 with beta }

let coefficients model = Array.copy model.beta

let predict_next model history =
  let n = Array.length history in
  if n < model.d + model.p + 1 then (if n = 0 then 0.0 else history.(n - 1))
  else begin
    let z = difference model.d history in
    let zn = Array.length z in
    let row = regressors model z (zn - 1) in
    let dz = ref 0.0 in
    Array.iteri (fun i r -> dz := !dz +. (model.beta.(i) *. r)) row;
    (* Integrate the forecast back d times. For d = 1 this is
       last + dz; in general each level adds its own last value. *)
    let rec integrate level forecast =
      if level = 0 then forecast
      else begin
        let series = difference (level - 1) history in
        integrate (level - 1) (series.(Array.length series - 1) +. forecast)
      end
    in
    integrate model.d !dz
  end

let forecaster model =
  Forecaster.of_fn
    ~name:(Printf.sprintf "arima(%d,%d,0)" model.p model.d)
    ~min_history:(model.d + model.p + 1)
    (predict_next model)
