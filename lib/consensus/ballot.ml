type t = { num : int; site : int }

let zero site = { num = 0; site }

let next b ~site = { num = b.num + 1; site }

let compare a b =
  match Int.compare a.num b.num with 0 -> Int.compare a.site b.site | c -> c

let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let equal a b = compare a b = 0

let pp fmt b = Format.fprintf fmt "<%d,%d>" b.num b.site

let to_string b = Format.asprintf "%a" pp b

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)
module Map = Stdlib.Map.Make (Ord)
