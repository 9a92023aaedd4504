(** Per-lane append-only buffers, read back in one deterministic order.

    A sharded simulation drains its lanes in windows, possibly on several
    domains at once. A {!clock} tells a writer which lane executes it and
    the shard's barrier epoch; every write made between windows (setup,
    barrier-aligned globals, post-run work) belongs to lane [-1], whoever
    the writer is. Each write lands in its own lane's buffer, so lanes never
    share a mutable field, and reads merge the buffers by (epoch, lane,
    per-lane sequence). That is the order one domain draining the windows
    in turn appends in: lanes ascending within a window, then the globals
    after its barrier. A merged read is therefore the same at any worker
    count. *)

type clock = {
  lanes : int;  (** lanes [0 .. lanes-1], plus lane [-1] *)
  lane : unit -> int;  (** the lane executing the caller; [-1] between windows *)
  epoch : unit -> int;  (** barriers passed so far *)
  now : int -> float;  (** a lane's virtual clock *)
}

val single : (unit -> float) -> clock
(** One engine and no windows: every write goes to lane [-1] in epoch 0,
    so reads keep plain arrival order. *)

type 'a t

val create : clock -> 'a t
val clock : 'a t -> clock

val push : 'a t -> 'a -> unit
(** Append to the executing lane's buffer, stamped with the current
    epoch. *)

val length : 'a t -> int
(** Writes so far, over every lane. *)

val to_list : 'a t -> 'a list
(** Every write, in (epoch, lane, sequence) order. *)
