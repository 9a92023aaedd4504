type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      dur : float;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Thread_name of { tid : int; name : string }
  | Flow_start of { name : string; cat : string; tid : int; ts : float; id : int }
  | Flow_finish of { name : string; cat : string; tid : int; ts : float; id : int }
  | Submitted of {
      trace : int;
      client : int;
      kind : string;
      entity : string;
      ts : float;
    }
  | Accepted of { trace : int; site : int; ts : float }
  | Enqueued of { trace : int; site : int; label : string; ts : float }
  | Dequeued of { trace : int; site : int; ts : float }
  | Wait of { trace : int; site : int; label : string; t0 : float; t1 : float }
  | Service of { trace : int; site : int; t0 : float; t1 : float }
  | Phase of { trace : int; site : int; name : string; t0 : float; t1 : float }
  | Hop of { trace : int; edge : int; src : int; dst : int; t0 : float; t1 : float }
  | Completed of { trace : int; outcome : string; ts : float }

let is_span = function
  | Complete _ | Instant _ | Thread_name _ | Flow_start _ | Flow_finish _ -> true
  | _ -> false

type t = event Lane_log.t

let create = Lane_log.create

let now t =
  let clock = Lane_log.clock t in
  clock.Lane_log.now (clock.Lane_log.lane ())

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_ts : float;
  mutable sp_open : bool;
}

let record = Lane_log.push

let start t ?(cat = "") ?(tid = 0) ?ts name =
  let ts = match ts with Some ts -> ts | None -> now t in
  { sp_name = name; sp_cat = cat; sp_tid = tid; sp_ts = ts; sp_open = true }

let complete t ?(cat = "") ?(tid = 0) ?(args = []) ~name ~ts ~dur () =
  record t (Complete { name; cat; tid; ts; dur; args })

let finish t ?(args = []) span =
  if span.sp_open then begin
    span.sp_open <- false;
    complete t ~cat:span.sp_cat ~tid:span.sp_tid ~args ~name:span.sp_name ~ts:span.sp_ts
      ~dur:(now t -. span.sp_ts) ()
  end

let instant t ?(cat = "") ?(tid = 0) ?(args = []) name =
  record t (Instant { name; cat; tid; ts = now t; args })

let events = Lane_log.to_list
