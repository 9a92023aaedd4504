(* A fixed global budget of extra worker domains, shared by every [map] on
   every level of the experiment tree. Each call hires as many workers as
   the budget allows (never more than items - 1: the caller always works
   too) and returns them when done, so nested fan-outs — trials inside an
   experiment inside the top-level sweep — degrade gracefully to inline
   execution instead of oversubscribing or deadlocking. *)

let budget = Atomic.make 0 (* extra domains available beyond each caller *)

let configured = Atomic.make 1

let set_jobs n =
  let n = max 1 n in
  Atomic.set configured n;
  Atomic.set budget (n - 1)

let jobs () = Atomic.get configured

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Engine worker domains per run (the CLI's --engine-jobs). A
   process-wide default rather than a parameter thread because the
   experiment registry builds systems many layers below the CLI. *)
let engine_jobs_level = Atomic.make 1

let set_engine_jobs n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Pool.set_engine_jobs: expected >= 1, got %d" n);
  Atomic.set engine_jobs_level n

let engine_jobs () = Atomic.get engine_jobs_level

let rec acquire_up_to n =
  if n = 0 then 0
  else
    let available = Atomic.get budget in
    if available = 0 then 0
    else
      let take = min n available in
      if Atomic.compare_and_set budget available (available - take) then take
      else acquire_up_to n

let release n = if n > 0 then ignore (Atomic.fetch_and_add budget n)

let map f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let failure = Atomic.make None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failure = None then begin
        (match f arr.(i) with
        | value -> results.(i) <- Some value
        | exception exn ->
            (* First failure wins; remaining items are skipped, the
               exception resurfaces in the caller once workers join. *)
            ignore (Atomic.compare_and_set failure None (Some exn)));
        worker ()
      end
    in
    let hired = acquire_up_to (n - 1) in
    let domains = List.init hired (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    release hired;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    Array.to_list (Array.map Option.get results)
  end
