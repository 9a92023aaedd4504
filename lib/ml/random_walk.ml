let last_or_zero history =
  let n = Array.length history in
  if n = 0 then 0.0 else history.(n - 1)

let forecaster () =
  Forecaster.of_fn ~name:"random-walk" ~min_history:1 last_or_zero
