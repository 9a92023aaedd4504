type objective =
  | Latency of { name : string; q : float; target_ms : float }
  | Abort_rate of { name : string; max_rate : float }

(* The paper's service story: local serves keep the median at client-RTT
   scale, redistribution stalls may push the tail to seconds, and
   admission control should shed well under a twentieth of the load. A
   geo-replicated baseline that pays a WAN round per operation blows the
   median objective; a shedding one blows the abort objective. *)
let default_objectives =
  [
    Latency { name = "p50_latency"; q = 0.50; target_ms = 250.0 };
    Latency { name = "p95_latency"; q = 0.95; target_ms = 2_000.0 };
    Latency { name = "p99_latency"; q = 0.99; target_ms = 10_000.0 };
    Abort_rate { name = "abort_rate"; max_rate = 0.05 };
  ]

(* One tumbling window's worth of outcomes. [commits] counts committed
   requests even when their latency is NaN (which the sketch ignores). *)
type cell = {
  mutable sketch : Quantile_sketch.t;
  mutable commits : int;
  mutable aborts : int;
}

let fresh_cell () = { sketch = Quantile_sketch.create (); commits = 0; aborts = 0 }

(* The one rule that maps a stamp to its window: every writer applies it,
   so cells of one window from different feeds always merge. *)
let window_index w rel_ms = int_of_float (Float.floor (rel_ms /. w))

module Feed = struct
  type t = {
    window_ms : float;
    cells : (int, cell) Hashtbl.t;
    mutable cur : cell option;  (* the cell of window [cur_k], once written *)
    mutable cur_k : int;
    mutable classes : (string * int ref) list;
  }

  let create ~window_ms =
    { window_ms; cells = Hashtbl.create 16; cur = None; cur_k = 0; classes = [] }

  (* The cell of the stamp's window. A slot's samples arrive in time
     order, so the cached window almost always hits: no lookup, no
     allocation. The stamp is taken apart here, not by the caller: a float
     computed at the call site would be boxed on every sample. *)
  let cell f ~start_ms ~now_ms =
    let k = window_index f.window_ms (now_ms -. start_ms) in
    match f.cur with
    | Some c when k = f.cur_k -> c
    | _ ->
        let c =
          match Hashtbl.find_opt f.cells k with
          | Some c -> c
          | None ->
              let c = fresh_cell () in
              Hashtbl.add f.cells k c;
              c
        in
        f.cur <- Some c;
        f.cur_k <- k;
        c

  let commit f ~start_ms ~now_ms ~latency_ms =
    let c = cell f ~start_ms ~now_ms in
    Quantile_sketch.add c.sketch latency_ms;
    c.commits <- c.commits + 1

  (* Count one abort of class [cls]; false if the class is new. A short
     assoc list: no hashing and no allocation once the class is known. *)
  let rec bump cls = function
    | [] -> false
    | (name, n) :: rest ->
        if String.equal name cls then begin
          incr n;
          true
        end
        else bump cls rest

  let abort f ~cls ~start_ms ~now_ms =
    let c = cell f ~start_ms ~now_ms in
    c.aborts <- c.aborts + 1;
    if cls <> "" && not (bump cls f.classes) then
      f.classes <- (cls, ref 1) :: f.classes

  let reset f =
    Hashtbl.reset f.cells;
    f.classes <- [];
    f.cur <- None
end

type t = {
  window_ms : float;
  objectives : objective array;
  pending : (int, cell) Hashtbl.t;  (* absorbed, not yet evaluated *)
  mutable total : Quantile_sketch.t;
  mutable total_commits : int;
  mutable total_aborts : int;
  mutable windows : int;
  violations : int array;
  worst : float array;
  abort_cls : (string, int ref) Hashtbl.t;
      (* cumulative abort counts by cause ("rejected", "shed",
         "timeout", ...) — attribution only, no objective reads them *)
  mutable on_violation :
    name:string ->
    window_start_ms:float ->
    window_end_ms:float ->
    value:float ->
    target:float ->
    unit;
}

let create ?(window_ms = 10_000.0) ?(objectives = default_objectives) () =
  (* NaN-safe: NaN fails the comparison, and an infinite window would
     stamp every boundary NaN (infinity *. 0.). *)
  if not (window_ms > 0.0 && window_ms < infinity) then
    invalid_arg
      (Printf.sprintf "Slo.create: window_ms must be positive and finite (got %g)"
         window_ms);
  let objectives = Array.of_list objectives in
  {
    window_ms;
    objectives;
    pending = Hashtbl.create 16;
    total = Quantile_sketch.create ();
    total_commits = 0;
    total_aborts = 0;
    windows = 0;
    violations = Array.make (Array.length objectives) 0;
    worst = Array.make (Array.length objectives) Float.nan;
    abort_cls = Hashtbl.create 8;
    on_violation = (fun ~name:_ ~window_start_ms:_ ~window_end_ms:_ ~value:_ ~target:_ -> ());
  }

let on_violation t hook = t.on_violation <- hook

let window_ms t = t.window_ms

let feed t = Feed.create ~window_ms:t.window_ms

(* The feed's cells move over (no copy), so the feed starts empty again. *)
let absorb t (f : Feed.t) =
  Hashtbl.iter
    (fun k c ->
      match Hashtbl.find_opt t.pending k with
      | None -> Hashtbl.add t.pending k c
      | Some p ->
          p.sketch <- Quantile_sketch.merge p.sketch c.sketch;
          p.commits <- p.commits + c.commits;
          p.aborts <- p.aborts + c.aborts)
    f.cells;
  List.iter
    (fun (cls, n) ->
      match Hashtbl.find_opt t.abort_cls cls with
      | Some r -> r := !r + !n
      | None -> Hashtbl.add t.abort_cls cls (ref !n))
    f.classes;
  Feed.reset f

let bump_worst t i v =
  if Float.is_nan t.worst.(i) || v > t.worst.(i) then t.worst.(i) <- v

(* Evaluate one window's cell against every objective. Cells only exist
   for windows that saw traffic — an idle stretch would otherwise dilute
   the violation ratio with vacuous passes. *)
let evaluate t k c =
  let requests = c.commits + c.aborts in
  let start = float_of_int k *. t.window_ms in
  let stop = float_of_int (k + 1) *. t.window_ms in
  t.windows <- t.windows + 1;
  t.total <- Quantile_sketch.merge t.total c.sketch;
  t.total_commits <- t.total_commits + c.commits;
  t.total_aborts <- t.total_aborts + c.aborts;
  let violated i value target =
    t.violations.(i) <- t.violations.(i) + 1;
    let name =
      match t.objectives.(i) with
      | Latency { name; _ } | Abort_rate { name; _ } -> name
    in
    t.on_violation ~name ~window_start_ms:start ~window_end_ms:stop ~value ~target
  in
  Array.iteri
    (fun i objective ->
      match objective with
      | Latency { q; target_ms; _ } ->
          if Quantile_sketch.count c.sketch > 0 then begin
            let v = Quantile_sketch.quantile c.sketch q in
            bump_worst t i v;
            if v > target_ms then violated i v target_ms
          end
      | Abort_rate { max_rate; _ } ->
          let rate = float_of_int c.aborts /. float_of_int requests in
          bump_worst t i rate;
          if rate > max_rate then violated i rate max_rate)
    t.objectives

let abort_classes t =
  Hashtbl.fold (fun cls r l -> (cls, !r) :: l) t.abort_cls []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flush t =
  let cells = Hashtbl.fold (fun k c l -> (k, c) :: l) t.pending [] in
  Hashtbl.reset t.pending;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) cells
  |> List.iter (fun (k, c) -> evaluate t k c)

type report_line = {
  name : string;
  kind : string;
  q : float;
  target : float;
  windows : int;
  violations : int;
  worst : float;
  overall : float;
}

let report t =
  flush t;
  Array.to_list
    (Array.mapi
       (fun i objective ->
         match objective with
         | Latency { name; q; target_ms } ->
             {
               name;
               kind = "latency";
               q;
               target = target_ms;
               windows = t.windows;
               violations = t.violations.(i);
               worst = t.worst.(i);
               overall = Quantile_sketch.quantile t.total q;
             }
         | Abort_rate { name; max_rate } ->
             let requests = t.total_commits + t.total_aborts in
             {
               name;
               kind = "abort_rate";
               q = Float.nan;
               target = max_rate;
               windows = t.windows;
               violations = t.violations.(i);
               worst = t.worst.(i);
               overall =
                 (if requests = 0 then Float.nan
                  else float_of_int t.total_aborts /. float_of_int requests);
             })
       t.objectives)

let healthy lines = List.for_all (fun line -> line.violations = 0) lines
