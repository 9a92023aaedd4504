(** Client-visible data model (§3.2).

    An {e entity} is a resource type (e.g. "VM"); its instances are
    indistinguishable {e tokens}. Clients acquire and release tokens;
    Samya tracks usage so that collectively no more than the preset
    maximum [m_e] is ever acquired (Equation 1). *)

type entity = string

type request =
  | Acquire of { entity : entity; amount : int; deadline_ms : float }
      (** [acquireTokens(e, n)], [n > 0]. [deadline_ms] is the absolute
          virtual time after which the reply is worthless to the client
          ([infinity] = none): a site sheds the request on arrival if it
          is already dead and discards it from redistribution queues once
          it expires. *)
  | Release of { entity : entity; amount : int; deadline_ms : float }
      (** [releaseTokens(e, m)], [m > 0] *)
  | Read of { entity : entity; deadline_ms : float }
      (** global-snapshot read of total available tokens (§5.8) *)

type response =
  | Granted
  | Rejected  (** not enough tokens anywhere, or site gave up redistribution *)
  | Rejected_deadline
      (** shed: the deadline passed before the site would have served it
          (dead on arrival, expired in a queue, or dropped by the
          admission gate). Deliberately distinct from {!Rejected} so
          clients can tell "no tokens" from "try again later". *)
  | Read_result of { tokens_available : int }
  | Unavailable  (** no reachable site to serve the request *)

type reply = at_ms:float -> response -> unit
(** A site's answer to one request, called once, when the site commits to
    [response]. [at_ms] is when the response leaves the site: the end of
    the request's CPU occupancy for a served request, the current time
    for a refusal that costs no CPU (a shed, a deadline refusal,
    [Unavailable]). Never earlier than the time of the call. *)

val request_entity : request -> entity

val request_deadline : request -> float
(** The request's absolute deadline, [infinity] when it carries none. *)

val acquire : ?deadline_ms:float -> entity:entity -> amount:int -> unit -> request
val release : ?deadline_ms:float -> entity:entity -> amount:int -> unit -> request
val read : ?deadline_ms:float -> entity:entity -> unit -> request
(** Constructors defaulting [deadline_ms] to [infinity]. *)

val validate : request -> (unit, string) result
(** Rejects non-positive amounts and NaN deadlines. *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
