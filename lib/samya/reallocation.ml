type entry = { site : int; tokens_left : int; tokens_wanted : int }

type grant = {
  site : int;
  new_tokens_left : int;
  wanted_satisfied : bool;
}

let spare entries = List.fold_left (fun acc e -> acc + e.tokens_left) 0 entries

let total_wanted entries = List.fold_left (fun acc e -> acc + e.tokens_wanted) 0 entries

let validate entries =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.tokens_left < 0 || e.tokens_wanted < 0 then
        invalid_arg "Reallocation.redistribute: negative token count";
      if Hashtbl.mem seen e.site then
        invalid_arg "Reallocation.redistribute: duplicate site";
      Hashtbl.replace seen e.site ())
    entries

(* Algorithm 2: reject ascending by wanted until demand fits the pool,
   grant every surviving request in full, then split the leftover pool
   equally with the integer remainder assigned in ascending site order so
   tokens are conserved exactly. *)
let redistribute entries =
  validate entries;
  let pool = spare entries in
  let by_wanted =
    List.sort (fun a b -> compare (a.tokens_wanted, a.site) (b.tokens_wanted, b.site)) entries
  in
  let rejected = Hashtbl.create 8 in
  let remaining = ref (total_wanted entries) in
  List.iter
    (fun e ->
      if !remaining > pool && e.tokens_wanted > 0 then begin
        remaining := !remaining - e.tokens_wanted;
        Hashtbl.replace rejected e.site ()
      end)
    by_wanted;
  let granted_of (e : entry) = if Hashtbl.mem rejected e.site then 0 else e.tokens_wanted in
  let in_site_order =
    List.sort (fun (a : entry) (b : entry) -> compare a.site b.site) entries
  in
  let total_granted = List.fold_left (fun acc e -> acc + granted_of e) 0 in_site_order in
  let leftover = pool - total_granted in
  let n = List.length entries in
  let share = if n = 0 then 0 else leftover / n in
  let extra = if n = 0 then 0 else leftover mod n in
  List.mapi
    (fun rank (e : entry) ->
      let bonus = if rank < extra then 1 else 0 in
      {
        site = e.site;
        new_tokens_left = granted_of e + share + bonus;
        wanted_satisfied = not (Hashtbl.mem rejected e.site);
      })
    in_site_order

let conserves_tokens entries grants =
  spare entries = List.fold_left (fun acc g -> acc + g.new_tokens_left) 0 grants
