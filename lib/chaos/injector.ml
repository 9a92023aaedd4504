module N = Geonet.Network

(* Faults overlap, so healing one must not undo another that is still
   active: crashes and one-way cuts are reference-counted, while the
   scalar knobs (drop rate, duplication, per-link latency, partition) are
   recomputed from the set of still-active faults after every change. *)
type 'msg t = {
  network : 'msg N.t;
  crash : int -> unit;
  recover : int -> unit;
  base_drop : float;
  crash_depth : int array;
  cut_depth : (int * int, int) Hashtbl.t;
  mutable active : (int * Nemesis.fault_kind) list; (* id, fault — newest first *)
  mutable next_id : int;
  mutable injected : int;
  mutable healed : int;
}

let create ~network ~crash ~recover () =
  {
    network;
    crash;
    recover;
    base_drop = N.drop_probability network;
    crash_depth = Array.make (N.node_count network) 0;
    cut_depth = Hashtbl.create 8;
    active = [];
    next_id = 0;
    injected = 0;
    healed = 0;
  }

let injected t = t.injected
let healed t = t.healed

let refresh_drop t =
  let p =
    List.fold_left
      (fun acc -> function
        | _, Nemesis.Drop_surge { probability } -> Float.max acc probability
        | _ -> acc)
      t.base_drop t.active
  in
  N.set_drop_probability t.network p

let refresh_duplication t =
  let p =
    List.fold_left
      (fun acc -> function
        | _, Nemesis.Duplication { probability } -> Float.max acc probability
        | _ -> acc)
      0.0 t.active
  in
  N.set_duplicate_probability t.network p

let refresh_latency t ~src ~dst =
  let extra =
    List.fold_left
      (fun acc -> function
        | _, Nemesis.Latency_spike { src = s; dst = d; extra_ms }
          when s = src && d = dst ->
            Float.max acc extra_ms
        | _ -> acc)
      0.0 t.active
  in
  N.set_link_extra_latency t.network ~src ~dst extra

let refresh_partition t =
  (* The most recently injected still-active partition wins (the network
     holds a single partition assignment). *)
  let groups =
    List.find_map
      (function _, Nemesis.Partition { groups } -> Some groups | _ -> None)
      t.active
  in
  match groups with
  | Some groups -> N.set_partition t.network groups
  | None -> N.clear_partition t.network

let start t kind =
  match kind with
  | Nemesis.Crash { site } ->
      t.crash_depth.(site) <- t.crash_depth.(site) + 1;
      if t.crash_depth.(site) = 1 then t.crash site
  | Nemesis.One_way_cut { src; dst } ->
      let depth = Option.value (Hashtbl.find_opt t.cut_depth (src, dst)) ~default:0 in
      Hashtbl.replace t.cut_depth (src, dst) (depth + 1);
      if depth = 0 then N.block_one_way t.network ~src ~dst
  | Nemesis.Partition _ -> refresh_partition t
  | Nemesis.Drop_surge _ -> refresh_drop t
  | Nemesis.Latency_spike { src; dst; _ } -> refresh_latency t ~src ~dst
  | Nemesis.Duplication _ -> refresh_duplication t

let heal t kind =
  match kind with
  | Nemesis.Crash { site } ->
      t.crash_depth.(site) <- t.crash_depth.(site) - 1;
      if t.crash_depth.(site) = 0 then t.recover site
  | Nemesis.One_way_cut { src; dst } ->
      let depth = Option.value (Hashtbl.find_opt t.cut_depth (src, dst)) ~default:1 in
      Hashtbl.replace t.cut_depth (src, dst) (depth - 1);
      if depth = 1 then N.unblock_one_way t.network ~src ~dst
  | Nemesis.Partition _ -> refresh_partition t
  | Nemesis.Drop_surge _ -> refresh_drop t
  | Nemesis.Latency_spike { src; dst; _ } -> refresh_latency t ~src ~dst
  | Nemesis.Duplication _ -> refresh_duplication t

(* [schedule_at] is the caller's scheduling slot: the facade's
   barrier-aligned [schedule_global] (every fault mutates state all lanes
   read, so it must run between windows). *)
let install ~schedule_at ~network ~crash ~recover (schedule : Nemesis.schedule) =
  let t = create ~network ~crash ~recover () in
  List.iter
    (fun (fault : Nemesis.fault) ->
      let id = t.next_id in
      t.next_id <- id + 1;
      schedule_at ~time_ms:fault.Nemesis.at_ms (fun () ->
          t.injected <- t.injected + 1;
          t.active <- (id, fault.Nemesis.kind) :: t.active;
          start t fault.Nemesis.kind);
      schedule_at ~time_ms:fault.Nemesis.heal_ms (fun () ->
          t.healed <- t.healed + 1;
          t.active <- List.filter (fun (i, _) -> i <> id) t.active;
          heal t fault.Nemesis.kind))
    schedule.Nemesis.faults;
  t
