(** Turns a {!Nemesis.schedule} into scheduled fault actions against a
    {!Geonet.Network} and a pair of crash/recover callbacks.

    Overlapping faults compose: crashes and one-way cuts are
    reference-counted (a site recovers only when its last overlapping
    crash heals), and the scalar knobs — global drop rate, duplication
    probability, per-link extra latency, the partition assignment — are
    recomputed from the still-active fault set after every injection and
    heal, so healing one fault never silently undoes another. *)

type 'msg t

val install :
  schedule_at:(time_ms:float -> (unit -> unit) -> unit) ->
  network:'msg Geonet.Network.t ->
  crash:(int -> unit) ->
  recover:(int -> unit) ->
  Nemesis.schedule ->
  'msg t
(** Schedules every fault's injection and heal through [schedule_at] —
    pass the facade's barrier-aligned [schedule_global] (faults mutate
    state every lane reads). [crash] and [recover] act on site indices
    (wire to {!Samya.Cluster.crash_site} / [recover_site]). *)

val injected : _ t -> int
val healed : _ t -> int
