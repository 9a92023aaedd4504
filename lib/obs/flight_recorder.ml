(* Always-on flight recorder: bounded per-lane rings of recent
   causal/protocol events.

   Determinism argument (DESIGN.md §16). Every event is written by
   exactly one engine lane (sites record under their hosting region's
   lane; the driver and cluster-level fault injector use lane -1), with
   a per-lane sequence number assigned at record time. Lane event
   streams depend only on virtual time, never on the worker count: the
   sharded DES replays each lane's schedule identically at any
   [--engine-jobs]. [drain] — called from the shard barrier hook — only *moves*
   events from lane rings into the global buffer to bound per-lane
   memory; [events] always re-sorts the union of the global buffer and
   lane leftovers by the total key (ts, lane, kind rank, seq), so the
   dump is byte-identical no matter when (or whether) barriers ran. The
   kind rank breaks cross-source ties at equal (ts, lane) — e.g. a heal
   fault landing on the same virtual millisecond as an SLO window edge —
   so the order never depends on which source recorded first. *)

type kind =
  | Protocol
  | Breaker
  | Mech
  | Shed
  | Fault
  | Slo_breach
  | Invariant
  | Note

let kind_name = function
  | Protocol -> "protocol"
  | Breaker -> "breaker"
  | Mech -> "mech"
  | Shed -> "shed"
  | Fault -> "fault"
  | Slo_breach -> "slo"
  | Invariant -> "invariant"
  | Note -> "note"

let kind_rank = function
  | Fault -> 0
  | Protocol -> 1
  | Mech -> 2
  | Breaker -> 3
  | Shed -> 4
  | Slo_breach -> 5
  | Invariant -> 6
  | Note -> 7

type event = {
  seq : int; (* per-lane, assigned at record time *)
  lane : int; (* -1 = driver/global *)
  ts : float; (* virtual ms *)
  kind : kind;
  site : int; (* -1 when not site-scoped *)
  entity : string; (* "" when not entity-scoped *)
  detail : string;
}

let compare_event a b =
  let c = compare a.ts b.ts in
  if c <> 0 then c
  else
    let c = compare a.lane b.lane in
    if c <> 0 then c
    else
      let c = compare (kind_rank a.kind) (kind_rank b.kind) in
      if c <> 0 then c else compare a.seq b.seq

(* A bounded ring that drops the oldest event on overflow. *)
type ring = {
  capacity : int;
  mutable buf : event option array;
  mutable start : int;
  mutable size : int;
  mutable next_seq : int;
  mutable dropped : int;
}

let ring_create capacity =
  { capacity; buf = [||]; start = 0; size = 0; next_seq = 0; dropped = 0 }

let ring_push r ev =
  if Array.length r.buf = 0 then r.buf <- Array.make r.capacity None;
  if r.size = r.capacity then begin
    (* overwrite the oldest *)
    r.buf.(r.start) <- Some ev;
    r.start <- (r.start + 1) mod r.capacity;
    r.dropped <- r.dropped + 1
  end
  else begin
    r.buf.((r.start + r.size) mod r.capacity) <- Some ev;
    r.size <- r.size + 1
  end

let ring_iter r f =
  for i = 0 to r.size - 1 do
    match r.buf.((r.start + i) mod r.capacity) with
    | Some ev -> f ev
    | None -> ()
  done

let ring_clear r =
  Array.fill r.buf 0 (Array.length r.buf) None;
  r.start <- 0;
  r.size <- 0

(* Each lane owns one ring, and the ring counts its own events
   ([next_seq]): lanes running on different domains never write a shared
   field. [recorded] sums the rings on read. *)
type t = {
  lane_capacity : int;
  mutable rings : ring array; (* index lane+1 *)
  global : ring;
}

let default_lane_capacity = 32_768
let default_global_capacity = 131_072

let create ?(lane_capacity = default_lane_capacity)
    ?(global_capacity = default_global_capacity) () =
  let positive what n =
    if n <= 0 then
      invalid_arg (Printf.sprintf "Flight_recorder.create: %s must be positive (got %d)" what n)
  in
  positive "lane_capacity" lane_capacity;
  positive "global_capacity" global_capacity;
  { lane_capacity; rings = [||]; global = ring_create global_capacity }

let grow t n =
  let have = Array.length t.rings in
  if n > have then
    t.rings <-
      Array.init n (fun i ->
          if i < have then t.rings.(i) else ring_create t.lane_capacity)

let reserve t ~lanes = grow t (lanes + 1)

let ring_for t lane =
  let idx = lane + 1 in
  if idx < 0 then invalid_arg "Flight_recorder.record: lane < -1";
  if idx >= Array.length t.rings then grow t (idx + 1);
  t.rings.(idx)

let record t ~lane ~ts ~kind ?(site = -1) ?(entity = "") detail =
  let r = ring_for t lane in
  let ev = { seq = r.next_seq; lane; ts; kind; site; entity; detail } in
  r.next_seq <- r.next_seq + 1;
  ring_push r ev

(* Move every lane ring's contents into the global buffer, in lane
   order. Purely a memory bound — [events] sorts the union either way. *)
let drain t =
  Array.iter
    (fun r ->
      if r.size > 0 then begin
        ring_iter r (fun ev -> ring_push t.global ev);
        ring_clear r
      end)
    t.rings

let events t =
  let acc = ref [] in
  ring_iter t.global (fun ev -> acc := ev :: !acc);
  Array.iter (fun r -> ring_iter r (fun ev -> acc := ev :: !acc)) t.rings;
  List.sort compare_event !acc

let dropped t =
  let d = ref t.global.dropped in
  Array.iter (fun r -> d := !d + r.dropped) t.rings;
  !d

let recorded t = Array.fold_left (fun n r -> n + r.next_seq) 0 t.rings

(* One-line rendering shared by the retrystorm figure, incident bundles
   and the run report. *)
let line ev =
  let where =
    if ev.site >= 0 then Printf.sprintf "site %d" ev.site else "global"
  in
  let entity = if ev.entity = "" then "" else Printf.sprintf " [%s]" ev.entity in
  Printf.sprintf "t=%9.1fms  lane %2d  %-7s  %-9s%s  %s" ev.ts ev.lane where
    (kind_name ev.kind) entity ev.detail

(* The armed payload handed to a system: the recorder itself plus an
   optional hot-key sketch fed from the request path. *)
type attachment = { recorder : t; hot : Heavy_hitters.Windowed.w option }

(* Same late-binding idiom as [Sink.port]: the off path is one load and
   one branch on [tap]. *)
type port = { mutable armed : attachment option }

let port () = { armed = None }
let attach port attachment = port.armed <- Some attachment
let detach port = port.armed <- None
let tap port = port.armed
