val cmd : int Cmdliner.Cmd.t
(** [samya_cli explain EXPERIMENT [--slowest N]]: critical-path latency
    attribution from the causal events of the trace log. *)
