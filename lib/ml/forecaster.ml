type t = {
  name : string;
  min_history : int;
  predict : float array -> float;
}

let of_fn ~name ?(min_history = 1) predict = { name; min_history; predict }

let rolling_eval t ~train ~test =
  let n_test = Array.length test in
  let history = Array.make (Array.length train + n_test) 0.0 in
  Array.blit train 0 history 0 (Array.length train);
  let predictions = Array.make n_test 0.0 in
  for i = 0 to n_test - 1 do
    let len = Array.length train + i in
    predictions.(i) <- t.predict (Array.sub history 0 len);
    history.(len) <- test.(i)
  done;
  predictions

let rolling_mae t ~train ~test =
  let predicted = rolling_eval t ~train ~test in
  Metrics.mae ~actual:test ~predicted
