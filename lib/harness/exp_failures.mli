(** Experiments `fig3c` / `fig3d`: crash failures and network partitions
    (§5.4).

    Fig. 3c: starting from five regions, one region (server and its
    clients) crashes every fifth of the run. Shapes to reproduce:
    MultiPaxSys's throughput drops to zero once three servers are down
    (majority lost); both Samya variants keep serving locally, and
    Avantan[*] overtakes Avantan[(n+1)/2] once no majority remains, since
    it can still redistribute within the surviving minority.

    Fig. 3d: a 3–2 partition for the rest of the run. MultiPaxSys serves
    only clients on the leader's side; Avantan[(n+1)/2] redistributes only
    in the majority partition, Avantan[*] in both. *)

val crash : Scenario.t
(** [fig3c]: four never-recovering {!Chaos.Nemesis.Crash} faults and the
    matching client crashes. *)

val partition : Scenario.t
(** [fig3d]: one never-healing 3–2 {!Chaos.Nemesis.Partition} at a third
    of the run. *)
