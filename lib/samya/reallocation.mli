(** Deterministic token reallocation — Algorithm 2 of the paper.

    Input: the agreed list [L_t] of per-site states [(TokensLeft,
    TokensWanted)] for the sites in [R_t]. All participants run this pure
    procedure on the same input and therefore compute the same outcome
    without further communication.

    Semantics, following the paper:
    - spare [S_t] = sum of all TokensLeft; total wanted = sum of TokensWanted;
    - if wanted exceeds spare, requests are rejected greedily in ascending
      order of TokensWanted — smallest first, maximising overall token
      usage — until the remaining demand fits the spare pool. (The paper's
      pseudo-code phrases the stopping test as "increasing the spare
      quantity"; rejecting a request shrinks outstanding demand by the same
      amount, which is the interpretation implemented and tested here.)
    - every surviving request is granted in full, and any leftover spare is
      split equally, with the integer remainder assigned in ascending
      site-id order so that tokens are conserved exactly. *)

type entry = { site : int; tokens_left : int; tokens_wanted : int }

type grant = {
  site : int;
  new_tokens_left : int;  (** the site's whole post-redistribution pool *)
  wanted_satisfied : bool;  (** false iff this site's request was rejected *)
}

val redistribute : entry list -> grant list
(** Result is in ascending site order. Raises [Invalid_argument] on
    duplicate sites or negative token counts. *)

val spare : entry list -> int
(** Total spare tokens [S_t]. *)

val total_wanted : entry list -> int

val conserves_tokens : entry list -> grant list -> bool
(** [sum new_tokens_left = sum tokens_left] — the safety check behind
    Equation 1, used by tests and runtime assertions. *)
