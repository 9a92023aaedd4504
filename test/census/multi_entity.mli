(** The multi-entity chaos run: 40 keys of quota 30 on a 5-site Samya
    cluster under the freeze crash model, five clients (one per region)
    acquiring and releasing across the whole key space, the full
    {!Chaos.Nemesis} schedule for the seed, then a drain of
    [max 240 s (4 × Site.anti_entropy_ms)] to quiescence.

    It is the body of the test property
    [chaos: per-entity conservation, batched protocol] (at its defaults)
    and of the chaos census ([census.exe] beside it), which runs it over
    many seeds in both protocol modes and both Avantan variants.
    Everything derives from the seed, so a run replays exactly. *)

type run = {
  seed : int;
  cluster : Samya.Cluster.t;  (** quiescent: traffic stopped, faults healed *)
  auditor : Chaos.Auditor.t;
      (** fed every protocol event under its channel label, and every
          recovery *)
  keys : (Samya.Types.entity * int) list;  (** every key with its quota *)
  healed : bool;  (** every injected fault was healed *)
}

val run : ?variant:Samya.Config.variant -> ?protocol_batch:int -> seed:int -> unit -> run
(** Defaults: Avantan[(n+1)/2], [protocol_batch = 8]. *)

val over_grants : run -> (Samya.Types.entity * string) list
(** Every key whose quiescent Equation-1 audit
    ({!Samya.Cluster.check_invariant}) fails, with its detail, in key
    order. *)

val parked : run -> int
(** Requests still queued at every site, summed over the keys. *)

val participating : run -> (int * Samya.Types.entity) list
(** The (site, key) pairs whose site still takes part in a protocol
    instance for the key, by site then key. *)
