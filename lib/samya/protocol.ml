module Ballot = Consensus.Ballot

type site_entry = Reallocation.entry = {
  site : int;
  tokens_left : int;
  tokens_wanted : int;
}

type group = {
  g_entity : string;
  g_entries : site_entry list;
}

type value = {
  origin : Ballot.t;
  groups : group list;
}

type contrib = string * site_entry

let make_value ~origin ~entity entries =
  { origin; groups = [ { g_entity = entity; g_entries = entries } ] }

let make_batched ~origin groups = { origin; groups }

let participants value =
  List.concat_map (fun g -> List.map (fun e -> e.site) g.g_entries) value.groups
  |> List.sort_uniq compare

let mem_site value site =
  List.exists (fun g -> List.exists (fun e -> e.site = site) g.g_entries) value.groups

let value_equal a b = Ballot.equal a.origin b.origin && a.groups = b.groups

type msg =
  | Election_get_value of { bal : Ballot.t; scope : string list }
  | Election_ok_value of {
      bal : Ballot.t;
      contribs : contrib list;
      accept_val : value option;
      accept_num : Ballot.t;
      decision : bool;
    }
  | Election_reject of { bal : Ballot.t }
  | Accept_value of { bal : Ballot.t; value : value; decision : bool }
  | Accept_ok of { bal : Ballot.t }
  | Decision of { bal : Ballot.t; value : value }
  | Discard of { bal : Ballot.t }
  | Status_query of { bal : Ballot.t }
  | Status_reply of {
      bal : Ballot.t;
      accept_val : value option;
      accept_num : Ballot.t;
      decision : bool;
    }

type outcome =
  | Decided of value
  | Aborted
