type node = int

type unit_info = {
  name : string;
  parent : node option;
  limit : int option;
  entity : Samya.Types.entity option; (* Some iff limited *)
}

type t = {
  cluster : Samya.Cluster.t;
  org_name : string;
  mutable units : unit_info array;
}

let entity_for t node = Printf.sprintf "%s#%d" t.org_name node

let create ~cluster ~org_name ~root_limit =
  if root_limit <= 0 then invalid_arg "Org.create: root limit must be positive";
  let t = { cluster; org_name; units = [||] } in
  let entity = entity_for t 0 in
  Samya.Cluster.init_entity cluster ~entity ~maximum:root_limit;
  t.units <-
    [| { name = org_name; parent = None; limit = Some root_limit; entity = Some entity } |];
  t

let root _ = 0

let info t node =
  if node < 0 || node >= Array.length t.units then invalid_arg "Org: unknown node";
  t.units.(node)

let add_unit t ~parent ~name ?limit () =
  let _ = info t parent in
  (match limit with
  | Some l when l <= 0 -> invalid_arg "Org.add_unit: limit must be positive"
  | Some _ | None -> ());
  Array.iteri
    (fun _ u ->
      if u.parent = Some parent && String.equal u.name name then
        invalid_arg "Org.add_unit: duplicate unit name under this parent")
    t.units;
  let node = Array.length t.units in
  let entity =
    match limit with
    | Some maximum ->
        let entity = entity_for t node in
        Samya.Cluster.init_entity t.cluster ~entity ~maximum;
        Some entity
    | None -> None
  in
  t.units <-
    Array.append t.units [| { name; parent = Some parent; limit; entity } |];
  node

let rec path_rev t node =
  let u = info t node in
  match u.parent with None -> [ u.name ] | Some p -> u.name :: path_rev t p

let path t node = String.concat "/" (List.rev (path_rev t node))

let limited_ancestors t node =
  let rec walk node acc =
    let u = info t node in
    let acc = match u.entity with Some e -> (node, e) :: acc | None -> acc in
    match u.parent with None -> List.rev acc | Some p -> walk p acc
  in
  walk node []

(* Acquire on each limited level bottom-up; compensate on rejection. *)
let consume t ~node ~region ~amount ~reply =
  let levels = limited_ancestors t node in
  let rec acquire_levels pending acquired =
    match pending with
    | [] -> reply Samya.Types.Granted
    | (_, entity) :: rest ->
        Samya.Cluster.submit t.cluster ~region
          (Samya.Types.Acquire { entity; amount; deadline_ms = infinity })
          ~reply:(fun response ->
            match response with
            | Samya.Types.Granted -> acquire_levels rest (entity :: acquired)
            | Samya.Types.Rejected | Samya.Types.Rejected_deadline | Samya.Types.Unavailable
            | Samya.Types.Read_result _ ->
                (* Undo the lower levels already charged. *)
                List.iter
                  (fun entity ->
                    Samya.Cluster.submit t.cluster ~region
                      (Samya.Types.Release { entity; amount; deadline_ms = infinity })
                      ~reply:(fun _ -> ()))
                  acquired;
                reply Samya.Types.Rejected)
  in
  if amount <= 0 then reply Samya.Types.Rejected else acquire_levels levels []

let return_resources t ~node ~region ~amount ~reply =
  let levels = limited_ancestors t node in
  let remaining = ref (List.length levels) in
  if amount <= 0 || !remaining = 0 then reply Samya.Types.Rejected
  else
    List.iter
      (fun (_, entity) ->
        Samya.Cluster.submit t.cluster ~region
          (Samya.Types.Release { entity; amount; deadline_ms = infinity })
          ~reply:(fun _ ->
            decr remaining;
            if !remaining = 0 then reply Samya.Types.Granted))
      levels

(* Tiered contention policies: the deeper a limit sits in the tree, the
   more local its traffic, the less token movement its entity needs. One
   pin per limited node, on every site. *)
let pin_contention_tiers t =
  Array.iteri
    (fun node u ->
      match u.entity with
      | None -> ()
      | Some entity ->
          let policy =
            match List.length (limited_ancestors t node) with
            | 1 -> Samya.Config.Controller.Adaptive (* the root *)
            | 2 -> Samya.Config.Controller.(Static Borrow)
            | _ -> Samya.Config.Controller.(Static Escrow)
          in
          Samya.Cluster.pin_policy t.cluster ~entity policy)
    t.units

let binding_entity t node =
  match limited_ancestors t node with
  | (_, entity) :: _ -> entity
  | [] -> assert false (* the root is always limited *)

let usage t node = Samya.Cluster.total_acquired t.cluster ~entity:(binding_entity t node)

let availability t node =
  Samya.Cluster.total_tokens_left t.cluster ~entity:(binding_entity t node)
