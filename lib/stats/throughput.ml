type t = {
  window_width : float;
  counts : (int, int) Hashtbl.t;
  mutable total : int;
  mutable max_window : int;
}

let create ~window_ms =
  if not (window_ms > 0.0 && window_ms < infinity) then
    invalid_arg
      (Printf.sprintf "Throughput.create: window must be positive and finite (got %g)"
         window_ms);
  { window_width = window_ms; counts = Hashtbl.create 64; total = 0; max_window = -1 }

let record_n t ~time_ms n =
  if time_ms < 0.0 then invalid_arg "Throughput.record: negative time";
  let window = int_of_float (time_ms /. t.window_width) in
  let current = Option.value (Hashtbl.find_opt t.counts window) ~default:0 in
  Hashtbl.replace t.counts window (current + n);
  t.total <- t.total + n;
  if window > t.max_window then t.max_window <- window

let record t ~time_ms = record_n t ~time_ms 1

let total t = t.total

let window_ms t = t.window_width

let series t ?until_ms () =
  let last_window =
    match until_ms with
    | Some limit -> int_of_float (limit /. t.window_width)
    | None -> t.max_window
  in
  let rec build window acc =
    if window < 0 then acc
    else begin
      let count = Option.value (Hashtbl.find_opt t.counts window) ~default:0 in
      let start = float_of_int window *. t.window_width in
      let tps = float_of_int count /. (t.window_width /. 1000.0) in
      build (window - 1) ((start, tps) :: acc)
    end
  in
  build last_window []

let merge_into src ~into =
  if src.window_width <> into.window_width then
    invalid_arg "Throughput.merge_into: window width mismatch";
  (* Windows walk in index order, so the merge is deterministic even
     though the counts live in hash tables. *)
  for window = 0 to src.max_window do
    match Hashtbl.find_opt src.counts window with
    | None -> ()
    | Some n ->
        let current = Option.value (Hashtbl.find_opt into.counts window) ~default:0 in
        Hashtbl.replace into.counts window (current + n);
        into.total <- into.total + n;
        if window > into.max_window then into.max_window <- window
  done

let average_tps t ~duration_ms =
  if duration_ms <= 0.0 then nan
  else float_of_int t.total /. (duration_ms /. 1000.0)
