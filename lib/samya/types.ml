type entity = string

type request =
  | Acquire of { entity : entity; amount : int; deadline_ms : float }
  | Release of { entity : entity; amount : int; deadline_ms : float }
  | Read of { entity : entity; deadline_ms : float }

type response =
  | Granted
  | Rejected
  | Rejected_deadline
  | Read_result of { tokens_available : int }
  | Unavailable

type reply = at_ms:float -> response -> unit

let request_entity = function
  | Acquire { entity; _ } | Release { entity; _ } | Read { entity; _ } -> entity

let request_deadline = function
  | Acquire { deadline_ms; _ } | Release { deadline_ms; _ } | Read { deadline_ms; _ }
    ->
      deadline_ms

let acquire ?(deadline_ms = infinity) ~entity ~amount () =
  Acquire { entity; amount; deadline_ms }

let release ?(deadline_ms = infinity) ~entity ~amount () =
  Release { entity; amount; deadline_ms }

let read ?(deadline_ms = infinity) ~entity () = Read { entity; deadline_ms }

let validate = function
  | Acquire { amount; _ } when amount <= 0 -> Error "acquireTokens: amount must be positive"
  | Release { amount; _ } when amount <= 0 -> Error "releaseTokens: amount must be positive"
  | (Acquire { deadline_ms; _ } | Release { deadline_ms; _ } | Read { deadline_ms; _ })
    when Float.is_nan deadline_ms ->
      Error "deadline_ms must not be NaN"
  | Acquire _ | Release _ | Read _ -> Ok ()

let pp_response fmt = function
  | Granted -> Format.fprintf fmt "granted"
  | Rejected -> Format.fprintf fmt "rejected"
  | Rejected_deadline -> Format.fprintf fmt "rejected(deadline)"
  | Read_result { tokens_available } -> Format.fprintf fmt "read(%d)" tokens_available
  | Unavailable -> Format.fprintf fmt "unavailable"
