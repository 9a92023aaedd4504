type t = { log : Trace_log.t; metrics : Metrics.t }

let create clock = { log = Trace_log.create clock; metrics = Metrics.create clock }

type port = {
  mutable sink : t option;
  mutable flight : Flight_recorder.attachment option;
}

let port () = { sink = None; flight = None }
let attach port sink = port.sink <- Some sink
let detach port = port.sink <- None
let tap port = port.sink
let arm port attachment = port.flight <- Some attachment
let disarm port = port.flight <- None
let flight port = port.flight

let record port event =
  match port.sink with Some sink -> Trace_log.record sink.log event | None -> ()
