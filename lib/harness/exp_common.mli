(** Canonical experiment setup values (§5.2) and duration scaling for
    quick runs. Every open-loop experiment runs through {!Scenario}. *)

val entity : Samya.Types.entity
(** "VM" — every experiment tracks the VM entity. *)

val maximum : int
(** M_e = 5000, the paper's global limit. *)

val seed : int64

val client_regions : unit -> Geonet.Region.t array
(** The five evaluation regions. *)

val duration_ms : quick:bool -> full_min:float -> quick_min:float -> float

val samya_config : Samya.Config.variant -> Samya.Config.t

val window_ms : quick:bool -> float
(** Throughput window: 60 s full, 30 s quick. *)
