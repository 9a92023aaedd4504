module Ballot = Consensus.Ballot

type violation = { check : string; site : int option; detail : string }

let pp_violation fmt { check; site; detail } =
  match site with
  | Some site -> Format.fprintf fmt "[%s] site %d: %s" check site detail
  | None -> Format.fprintf fmt "[%s] %s" check detail

(* Protocol events reach the auditor on the lane of the site that emits
   them, so every piece of state is per site: a site's slots have one
   writer at a time, and lanes draining on different domains never share
   one. *)
type t = {
  variant : Samya.Config.variant;
  last_decided : (Samya.Types.entity, Ballot.t) Hashtbl.t array;
      (* per site and protocol channel, the last origin that channel's
         machine applied in the site's current incarnation; reset on
         recovery, since a rolled-back site may legitimately re-apply
         instances its ledger lost *)
  live : violation list array; (* per site, newest first *)
}

let create ~variant ~n_sites () =
  {
    variant;
    last_decided = Array.init n_sites (fun _ -> Hashtbl.create 8);
    live = Array.make n_sites [];
  }

(* Anytime check, fed from the protocol event stream: with carried accept
   state (Avantan[(n+1)/2]) one machine applies decisions in strictly
   increasing origin order within one incarnation — Avantan[*] instances
   are independent and may decide out of ballot order, so the check is
   variant-gated. Each channel is its own machine with its own ballots,
   so the order is checked per (site, channel). *)
let on_protocol_event t ~site ~channel event =
  match (t.variant, event) with
  | Samya.Config.Majority, Samya.Avantan_core.Decided { origin; _ } -> (
      let last = t.last_decided.(site) in
      match Hashtbl.find_opt last channel with
      | Some previous when not Ballot.(origin > previous) ->
          t.live.(site) <-
            {
              check = "monotone-decided-prefix";
              site = Some site;
              detail =
                Format.asprintf
                  "channel %S applied %a after %a without an intervening recovery"
                  channel Ballot.pp origin Ballot.pp previous;
            }
            :: t.live.(site)
      | Some _ | None -> Hashtbl.replace last channel origin)
  | _ -> ()

let note_recovery t ~site = Hashtbl.reset t.last_decided.(site)

let live_violations t =
  Array.fold_right (fun vs acc -> List.rev_append vs acc) t.live []

(* Decided-log checks, safe at any point (the logs only grow):
   - per site, no origin may appear twice (each instance moves tokens
     exactly once);
   - across sites, two values recorded under one origin must be equal —
     divergence means a ballot was reused for different values, which is
     exactly the Paxos violation lost promises produce under weak sync. *)
let check_logs logs =
  let violations = ref [] in
  let canonical : (Ballot.t, int * Samya.Protocol.value) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (site, log) ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (value : Samya.Protocol.value) ->
          let origin = value.Samya.Protocol.origin in
          if Hashtbl.mem seen origin then
            violations :=
              {
                check = "duplicate-origin";
                site = Some site;
                detail =
                  Format.asprintf "origin %a recorded twice in the decided log"
                    Ballot.pp origin;
              }
              :: !violations
          else Hashtbl.replace seen origin ();
          match Hashtbl.find_opt canonical origin with
          | None -> Hashtbl.replace canonical origin (site, value)
          | Some (first_site, first_value) ->
              if not (Samya.Protocol.value_equal first_value value) then
                violations :=
                  {
                    check = "value-consistency";
                    site = Some site;
                    detail =
                      Format.asprintf
                        "origin %a decided differently here than at site %d"
                        Ballot.pp origin first_site;
                  }
                  :: !violations)
        log)
    logs;
  List.rev !violations

let check_cluster t cluster ~keys ~quiescent =
  let check_key (entity, maximum) =
    let logs =
      List.init (Samya.Cluster.n_sites cluster) (fun i ->
          (i, Samya.Site.decided_log (Samya.Cluster.site cluster i) ~entity))
    in
    let conservation =
      if not quiescent then []
      else
        match Samya.Cluster.check_invariant cluster ~entity ~maximum with
        | Ok () -> []
        | Error detail ->
            [ { check = "token-conservation"; site = None; detail = entity ^ ": " ^ detail } ]
    in
    check_logs logs @ conservation
  in
  live_violations t @ List.concat_map check_key keys
