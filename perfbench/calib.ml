(* A fixed reference computation, timed beside the measured phases of
   every run to take the shared host's speed out of the wall-time
   metrics.

   The host's speed drifts by up to 1.5x over tens of seconds, so one
   invocation's raw median moves with the moment it ran in. The kernel
   below does the same kind of work as the simulator (a float-keyed
   binary heap of pending events, short-lived allocations, scattered
   writes to a hash table and a counter array) and is timed right before
   and right after each timed phase. A phase's seconds are then
   reported at reference speed: scaled by [reference_s] over the kernel's
   seconds beside it. Nothing here calls the library, so no change to the
   system under test moves the kernel.

   The kernel's state (~12.5 MB) is allocated once, when the program
   starts, and reset on every pass; a pass keeps nothing else alive. So
   timing it inside a run adds the same constant to every run's peak
   heap. *)

(* The kernel's time on a quiet 2-core 2.1 GHz Xeon VM; it only fixes the
   scale of the reported seconds. *)
let reference_s = 0.1

let steps = 260_000
let slots = 1 lsl 16
let capacity = 1 lsl 18
let table_size = 1 lsl 20
let key_space = 1 lsl 19

let counters = Array.make slots 0
let recent = Array.make 256 (0.0, 0)
let table = Array.make table_size (-1)
let keys = Array.make capacity 0.0
let items = Array.make capacity 0

let push size key item =
  let i = ref !size in
  incr size;
  while !i > 0 && keys.((!i - 1) / 2) > key do
    let parent = (!i - 1) / 2 in
    keys.(!i) <- keys.(parent);
    items.(!i) <- items.(parent);
    i := parent
  done;
  keys.(!i) <- key;
  items.(!i) <- item

let pop size =
  let key = keys.(0) and item = items.(0) in
  decr size;
  let last_key = keys.(!size) and last_item = items.(!size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= !size then sifting := false
    else
      let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < last_key then begin
        keys.(!i) <- keys.(c);
        items.(!i) <- items.(c);
        i := c
      end
      else sifting := false
  done;
  keys.(!i) <- last_key;
  items.(!i) <- last_item;
  (key, item)

(* Open addressing, linear probing; the table never fills: keys are
   drawn from [key_space], half of [table_size]. *)
let rec insert k i =
  let slot = i land (table_size - 1) in
  let held = table.(slot) in
  if held = -1 || held = k then table.(slot) <- k else insert k (slot + 1)

let kernel () =
  Array.fill counters 0 slots 0;
  Array.fill table 0 table_size (-1);
  let size = ref 0 in
  (* xorshift: the kernel's inputs are fixed *)
  let x = ref 88172645463325252 in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land max_int
  in
  for i = 0 to (capacity / 2) - 1 do
    push size (float_of_int (next () mod 1000)) (i land (slots - 1))
  done;
  for step = 1 to steps do
    let t, item = pop size in
    let r = next () in
    let slot = r land (slots - 1) in
    counters.(slot) <- counters.(slot) + item;
    insert (r land (key_space - 1)) (r * 40503);
    recent.(step land 255) <- (t, counters.(slot));
    push size (t +. float_of_int (r mod 997) +. 1.0) ((item + r) land (slots - 1))
  done

let now_s () = Probe.now_ns () *. 1e-9

(* Seconds one pass of the kernel takes now. *)
let time () =
  let start = now_s () in
  kernel ();
  now_s () -. start
