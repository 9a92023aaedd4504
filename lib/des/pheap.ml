(* Structure-of-arrays binary min-heap (see the .mli for why values sit in
   slots). [slots.(0 .. size - 1)] is in heap order; [slots.(size ..)] holds
   the free slot ids, so [grow], called only when full, appends
   [size .. capacity - 1]. The sift loops insert into a moving hole instead
   of swapping and use unchecked access: every index is bounded by [size],
   which never exceeds the capacity of the (equal-length) backing arrays. *)

type 'a t = {
  dummy : 'a;
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  { dummy; keys = [||]; seqs = [||]; slots = [||]; values = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let capacity = max 16 (2 * Array.length t.keys) in
  let keys = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let slots = Array.init capacity Fun.id in
  let values = Array.make capacity t.dummy in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.slots 0 slots 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.slots <- slots;
  t.values <- values

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_reserved t ~priority ~seq value =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let slot = Array.unsafe_get slots t.size in
  Array.unsafe_set t.values slot value;
  (* Bubble a hole up from the new leaf; parents slide down into it. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys parent in
    if priority < pk || (priority = pk && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else placed := true
  done;
  Array.unsafe_set keys !i priority;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let push t ~priority value = push_reserved t ~priority ~seq:(reserve t) value

(* Re-insert the entry [(key, seq, slot)] into the hole at the root:
   smaller children slide up into the hole until the entry fits. *)
let sift_down_into_root t key seq slot =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let size = t.size in
  let i = ref 0 in
  let placed = ref false in
  while not !placed do
    let left = (2 * !i) + 1 in
    if left >= size then placed := true
    else begin
      let right = left + 1 in
      let lk = Array.unsafe_get keys left in
      let child =
        if
          right < size
          && (let rk = Array.unsafe_get keys right in
              rk < lk
              || (rk = lk && Array.unsafe_get seqs right < Array.unsafe_get seqs left))
        then right
        else left
      in
      let ck = Array.unsafe_get keys child in
      if ck < key || (ck = key && Array.unsafe_get seqs child < seq) then begin
        Array.unsafe_set keys !i ck;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs child);
        Array.unsafe_set slots !i (Array.unsafe_get slots child);
        i := child
      end
      else placed := true
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_key t = t.keys.(0)

let pop_unsafe t =
  let slot = t.slots.(0) in
  let top = t.values.(slot) in
  t.values.(slot) <- t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down_into_root t
      (Array.unsafe_get t.keys last)
      (Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.slots last);
  t.slots.(last) <- slot;
  top

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    Some (key, pop_unsafe t)
  end

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.values.(t.slots.(0)))

(* Batched drains: the per-event [is_empty]/[min_key] probing of a
   caller-side loop collapses into one bounds-checked root read per
   iteration. [f] may push back into the heap (events scheduling events);
   the loop re-reads the root after every call, so newly inserted entries
   below the limit are drained in the same pass. *)

let drain_below t ~limit f =
  let running = ref true in
  while !running do
    if t.size = 0 then running := false
    else begin
      let key = Array.unsafe_get t.keys 0 in
      if key < limit then f key (pop_unsafe t) else running := false
    end
  done

let drain_to t ~limit f =
  let running = ref true in
  while !running do
    if t.size = 0 then running := false
    else begin
      let key = Array.unsafe_get t.keys 0 in
      if key <= limit then f key (pop_unsafe t) else running := false
    end
  done

let clear t =
  t.keys <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.values <- [||];
  t.size <- 0;
  t.next_seq <- 0
