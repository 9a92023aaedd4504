type t = { log : Trace_log.t; metrics : Metrics.t }

let create clock = { log = Trace_log.create clock; metrics = Metrics.create clock }

type port = { mutable sink : t option }

let port () = { sink = None }
let attach port sink = port.sink <- Some sink
let detach port = port.sink <- None
let tap port = port.sink

let record port event =
  match port.sink with Some sink -> Trace_log.record sink.log event | None -> ()
