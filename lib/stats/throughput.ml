(* One count per window, dense from window 0 ([series] walks every window
   up to the latest anyway): recording is an array write, with no lookup
   and no allocation. *)
type t = {
  window_width : float;
  mutable counts : int array;
  mutable total : int;
  mutable max_window : int;
}

let create ~window_ms =
  if not (window_ms > 0.0 && window_ms < infinity) then
    invalid_arg
      (Printf.sprintf "Throughput.create: window must be positive and finite (got %g)"
         window_ms);
  { window_width = window_ms; counts = [||]; total = 0; max_window = -1 }

let add t window n =
  let len = Array.length t.counts in
  if window >= len then begin
    let counts = Array.make (max (window + 1) (2 * len)) 0 in
    Array.blit t.counts 0 counts 0 len;
    t.counts <- counts
  end;
  t.counts.(window) <- t.counts.(window) + n;
  t.total <- t.total + n;
  if window > t.max_window then t.max_window <- window

let record_n t ~time_ms n =
  if not (time_ms >= 0.0 && time_ms < infinity) then
    invalid_arg "Throughput.record: time must be non-negative and finite";
  add t (int_of_float (time_ms /. t.window_width)) n

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
      let count = if window < Array.length t.counts then t.counts.(window) else 0 in
      let start = float_of_int window *. t.window_width in
      let tps = float_of_int count /. (t.window_width /. 1000.0) in
      build (window - 1) ((start, tps) :: acc)
    end
  in
  build last_window []

let merge_into src ~into =
  if src.window_width <> into.window_width then
    invalid_arg "Throughput.merge_into: window width mismatch";
  for window = 0 to src.max_window do
    add into window src.counts.(window)
  done
