type t = {
  tokens_left : int;
  acquired_net : int;
  applied_origins : Consensus.Ballot.Set.t;
  decided_log : Protocol.value list;
  protocol : Avantan_core.image option;
}

let capture (ctx : Entity_state.t) =
  {
    tokens_left = ctx.Entity_state.core.Entity_map.tokens_left;
    acquired_net = ctx.Entity_state.core.Entity_map.acquired_net;
    applied_origins = ctx.Entity_state.applied_origins;
    decided_log = Entity_state.decided_log ctx;
    protocol = Option.map Avantan_core.snapshot ctx.Entity_state.av;
  }
