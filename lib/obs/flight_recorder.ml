(* Always-on flight recorder on the per-lane log.

   Determinism argument (DESIGN.md §16). Every event is written into the
   buffer of the lane executing the write ([Lane_log]), and the log's
   merge order is the order one domain draining the windows in turn runs
   the writes in, at any [--engine-jobs]. [events] stable-sorts that
   order by (ts, lane, kind rank), so equal keys keep record order. The
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
  lane : int; (* -1 = driver/global *)
  ts : float; (* virtual ms *)
  kind : kind;
  site : int; (* -1 when not site-scoped *)
  entity : string; (* "" when not entity-scoped *)
  detail : string;
}

let compare_event a b =
  let c = Float.compare a.ts b.ts in
  if c <> 0 then c
  else
    let c = Int.compare a.lane b.lane in
    if c <> 0 then c else Int.compare (kind_rank a.kind) (kind_rank b.kind)

type t = { mutable log : event Lane_log.t }

let create () = { log = Lane_log.create (Lane_log.single (fun () -> 0.0)) }

let recorded t = Lane_log.length t.log
let dropped _ = 0

let bind t clock =
  if recorded t > 0 then invalid_arg "Flight_recorder.bind: events already recorded";
  t.log <- Lane_log.create clock

let record t ~lane ~ts ~kind ?(site = -1) ?(entity = "") detail =
  Lane_log.push t.log { lane; ts; kind; site; entity; detail }

let events t = List.stable_sort compare_event (Lane_log.to_list t.log)

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
