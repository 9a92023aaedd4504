(* The open epoch's running sums. A float-only record stores its fields
   unboxed, so [record] updates them without allocating (float fields of
   [t], a mixed record, would box every new value). *)
type current = { mutable demand : float; mutable peak : float }

type t = {
  engine : Des.Engine.t;
  epoch_ms : float;
  capacity : int;
  buffer : float array; (* ring of completed epochs: net demand *)
  peaks : float array; (* ring of completed epochs: peak running draw *)
  mutable stored : int; (* number of completed epochs held, <= capacity *)
  mutable head : int; (* next write slot *)
  mutable current_epoch : int;
  current : current;
}

let create ~engine ~epoch_ms ~capacity =
  if epoch_ms <= 0.0 then invalid_arg "Demand_tracker.create: epoch must be positive";
  if capacity < 1 then invalid_arg "Demand_tracker.create: capacity must be >= 1";
  {
    engine;
    epoch_ms;
    capacity;
    buffer = Array.make capacity 0.0;
    peaks = Array.make capacity 0.0;
    stored = 0;
    head = 0;
    current_epoch = 0;
    current = { demand = 0.0; peak = 0.0 };
  }

let push_completed t =
  t.buffer.(t.head) <- t.current.demand;
  t.peaks.(t.head) <- t.current.peak;
  t.head <- (t.head + 1) mod t.capacity;
  if t.stored < t.capacity then t.stored <- t.stored + 1

let epoch_of t = int_of_float (Des.Engine.now t.engine /. t.epoch_ms)

(* Close out any epochs that elapsed since the last record. *)
let roll t =
  let now_epoch = epoch_of t in
  while t.current_epoch < now_epoch do
    push_completed t;
    t.current.demand <- 0.0;
    t.current.peak <- 0.0;
    t.current_epoch <- t.current_epoch + 1
  done

let record t ~amount =
  roll t;
  let c = t.current in
  c.demand <- c.demand +. float_of_int amount;
  if c.demand > c.peak then c.peak <- c.demand

let ring t source =
  Array.init t.stored (fun i ->
      let idx = (t.head - t.stored + i + (2 * t.capacity)) mod t.capacity in
      source.(idx))

let history t =
  roll t;
  ring t t.buffer

let peak_history t =
  roll t;
  ring t t.peaks

let current_epoch_demand t =
  roll t;
  t.current.demand

let current_epoch_peak t =
  roll t;
  t.current.peak

let epoch_index t = epoch_of t
