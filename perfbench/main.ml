(* perfbench: the Samya benchmark command.

     main.exe --workload fleet|hotspot|storm --seed N --seconds S --trace 0|1
              [--out FILE]
     main.exe --compare FILE_A FILE_B

   Prints a stamp, the metrics by name and unit, and as its last stdout
   line one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Exits 1 when a correctness check fails, 2 on bad usage. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet|hotspot|storm --seed N --seconds S --trace 0|1 \
     [--out FILE]\n\
    \       main.exe --compare FILE_A FILE_B";
  exit 2

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

type args = {
  workload : string option;
  seed : int64 option;
  seconds : float option;
  trace : bool option;
  out : string option;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> (
        match Int64.of_string_opt v with
        | Some s -> go { a with seed = Some s } rest
        | None -> fail "--seed: not an integer: %s" v)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when Float.is_finite s && s >= 0.0 -> go { a with seconds = Some s } rest
        | _ -> fail "--seconds: not a non-negative number: %s" v)
    | "--trace" :: "0" :: rest -> go { a with trace = Some false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = Some true } rest
    | "--out" :: v :: rest -> go { a with out = Some v } rest
    | arg :: _ -> fail "unexpected argument: %s" arg
  in
  go { workload = None; seed = None; seconds = None; trace = None; out = None } argv

(* The commit of the checkout, read from .git without running git; a
   checkout without .git (an exported tree) reads "unknown". *)
let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with
      | Some sha -> sha
      | None -> (
          let packed = Option.value (read (Filename.concat ".git" "packed-refs")) ~default:"" in
          let hit =
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; name ] when name = ref_name -> Some sha
                | _ -> None)
              (String.split_on_char '\n' packed)
          in
          Option.value hit ~default:"unknown"))
  | Some sha -> sha

let run args =
  let workload, seed, seconds, trace =
    match args with
    | { workload = Some w; seed = Some s; seconds = Some t; trace = Some tr; _ } ->
        (w, s, t, tr)
    | _ -> usage ()
  in
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> fail "unknown workload %s (fleet, hotspot, storm)" workload
  in
  let outcome =
    Runner.require_finite
      (if trace then Runner.trace w ~seed else Runner.measure w ~seed ~seconds)
  in
  let stamp =
    Results.stamp ~workload:w ~seed ~trace ~host_cores:(Runner.host_cores ())
      ~commit:(git_commit ())
  in
  Results.print stdout ~stamp outcome;
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> Results.write oc ~stamp outcome))
    args.out;
  List.iter (fun p -> print_endline ("CHECK FAILED: " ^ p)) outcome.Runner.problems;
  print_endline (Results.json outcome);
  if outcome.Runner.problems <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> exit (Results.compare_files a b)
  | [] -> usage ()
  | argv -> run (parse argv)
