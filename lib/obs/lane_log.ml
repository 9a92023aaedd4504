type clock = {
  lanes : int;
  lane : unit -> int;
  epoch : unit -> int;
  now : int -> float;
}

let single now =
  { lanes = 0; lane = (fun () -> -1); epoch = (fun () -> 0); now = (fun _ -> now ()) }

(* One lane's writes in sequence order; [segs] marks where each epoch
   starts, newest first. Only the owning lane mutates it. *)
type 'a buf = {
  mutable items : 'a array;
  mutable size : int;
  mutable segs : (int * int) list;
}

type 'a t = { clock : clock; bufs : 'a buf array (* index lane + 1 *) }

let create clock =
  { clock; bufs = Array.init (clock.lanes + 1) (fun _ -> { items = [||]; size = 0; segs = [] }) }

let clock t = t.clock

let push t x =
  let b = t.bufs.(t.clock.lane () + 1) in
  let epoch = t.clock.epoch () in
  (match b.segs with
  | (e, _) :: _ when e = epoch -> ()
  | _ -> b.segs <- (epoch, b.size) :: b.segs);
  if b.size = Array.length b.items then begin
    let items = Array.make (max 16 (2 * b.size)) x in
    Array.blit b.items 0 items 0 b.size;
    b.items <- items
  end;
  b.items.(b.size) <- x;
  b.size <- b.size + 1

let length t = Array.fold_left (fun n b -> n + b.size) 0 t.bufs

(* Cut every lane into its epoch segments and order them by (epoch,
   lane). Walking the segments backwards and consing each one's items
   backwards yields the list in order in one pass. *)
let to_list t =
  let segments = ref [] in
  Array.iteri
    (fun lane b ->
      ignore
        (List.fold_left
           (fun stop (epoch, start) ->
             segments := (epoch, lane, start, stop) :: !segments;
             start)
           b.size b.segs))
    t.bufs;
  List.fold_left
    (fun acc (_, lane, start, stop) ->
      let items = t.bufs.(lane).items in
      let acc = ref acc in
      for i = stop - 1 downto start do
        acc := items.(i) :: !acc
      done;
      !acc)
    []
    (List.sort
       (fun (e, l, _, _) (e', l', _, _) ->
         if e = e' then Int.compare l' l else Int.compare e' e)
       !segments)
