(* Self-contained run reports — the `samya_cli report` artifact.

   One document per invocation, rendering every captured system's
   outcome, SLO verdict, throughput timeline, mechanism attribution,
   hot-key telemetry and watchdog incidents (with the first incident's
   black-box bundle) from the always-on incident layer. The document is
   built once, as a list of blocks; GitHub-flavoured markdown and a
   single-file HTML page (inline styles, an inline-SVG throughput figure,
   no external assets, so the CI artifact opens anywhere) are two folds
   over it.

   Determinism: everything here is a pure function of the captures and
   the run metadata (no wall-clock stamps), so reports are byte-identical
   for a given seed at any --jobs level. *)

type meta = { experiment : string; quick : bool; seed : int64 }

type block =
  | Heading of int * string  (* level, text *)
  | Verdict of string * bool  (* a level-3 heading ending in healthy/VIOLATED *)
  | Meta of string  (* the line under the title *)
  | Para of string
  | Table of (string list * string list list)  (* header, rows *)
  | Pre of string list  (* preformatted lines *)
  | Timeline of float * (float * float) list
      (* horizon (ms), then committed txn/s per throughput window *)

(* ------------------------------------------------------------------ *)
(* The document                                                         *)

let outcome =
  Scenario.
    [
      committed;
      rejected;
      unavailable;
      shed;
      timed_out;
      retries;
      ("avg throughput", fun c -> snd avg_tps c ^ " txn/s");
      ("p50 latency", snd p50);
      ("p95 latency", snd p95);
      ("p99 latency", snd p99);
    ]

(* What the defenses and the protocol did, straight from the recorder:
   event counts by kind, sheds split by cause, mechanism transitions. *)
let attribution =
  let tally header p =
    Scenario.count header (fun c ->
        List.length (List.filter p (Obs.Flight_recorder.events c.Scenario.flight)))
  in
  let kind k (ev : Obs.Flight_recorder.event) = ev.kind = k in
  let shed_by why (ev : Obs.Flight_recorder.event) = ev.kind = Shed && ev.detail = why in
  Scenario.
    [
      redistributions;
      borrows;
      ("mechanism switches", snd switches);
      tally "protocol events" (kind Protocol);
      tally "breaker trips" (kind Breaker);
      tally "sheds (deadline)" (shed_by "deadline");
      tally "sheds (admission)" (shed_by "admission");
      tally "sheds (queue expired)" (shed_by "queue_expired");
      tally "faults injected" (kind Fault);
      tally "SLO breaches" (kind Slo_breach);
      ( "recorder",
        fun c -> Printf.sprintf "%s events (%s dropped)" (snd recorded c) (snd dropped c) );
    ]

let pairs ~header columns c = Table (header, List.map (fun (k, cell) -> [ k; cell c ]) columns)

let plural n = if n = 1 then "" else "s"

let watchdog (c : Scenario.capture) =
  let n = List.length c.incidents in
  Heading (3, Printf.sprintf "Watchdog: %d incident%s" n (plural n))
  ::
  (match Obs.Watchdog.count_by_rule c.incidents with
  | [] -> [ Para "No incidents: every rule stayed quiet." ]
  | counts ->
      [
        Table ([ "rule"; "count" ], List.map (fun (r, n) -> [ r; string_of_int n ]) counts);
        Pre
          (List.filteri (fun i _ -> i < 20) (List.map Obs.Watchdog.incident_line c.incidents)
          @ if n > 20 then [ Printf.sprintf "(… %d more)" (n - 20) ] else []);
      ])

(* The first incident's black box: the bundle a post-incident review
   starts from. *)
let black_box (c : Scenario.capture) =
  match c.incidents with
  | [] -> []
  | incident :: _ ->
      let b =
        Obs.Watchdog.bundle ~hot:c.hot (Obs.Flight_recorder.events c.flight) incident
      in
      let hot =
        match b.b_hot with
        | [] -> []
        | top ->
            [
              (match b.b_hot_window with
              | Some start ->
                  Printf.sprintf "hot keys in breached window (from %.0f s):"
                    (start /. 1000.0)
              | None -> "hot keys (cumulative):")
              ^ String.concat "" (List.map (fun (k, n) -> Printf.sprintf "  %s %d" k n) top);
            ]
      in
      [
        Heading (3, "Black box (first incident)");
        Pre
          ((("trigger: " ^ Obs.Watchdog.incident_line b.b_incident)
           :: List.map (fun ev -> "  " ^ Obs.Flight_recorder.line ev) b.b_events)
          @ hot);
      ]

let capture (c : Scenario.capture) =
  let hot = Obs.Heavy_hitters.(top ~n:8 (Windowed.cumulative c.hot)) in
  [
    Heading (2, c.arm.name);
    Heading (3, "Outcome");
    pairs ~header:[ "outcome"; "value" ] outcome c;
    Heading (3, "Committed throughput");
    Timeline (c.result.Driver.duration_ms, Scenario.series c);
    Verdict ("SLO (samya-slo/1)", Obs.Slo.healthy (Obs.Slo.report c.slo));
    Table (Scenario.slo_table c);
    Heading (3, "Mechanism attribution");
    pairs ~header:[ "source"; "count" ] attribution c;
  ]
  @ (if hot = [] then []
     else
       [
         Heading (3, "Hot keys (request-path sketch)");
         Table ([ "key"; "estimate" ], List.map (fun (k, n) -> [ k; string_of_int n ]) hot);
       ])
  @ watchdog c @ black_box c

let title meta = "Samya run report: " ^ meta.experiment

let document meta captures =
  let n = List.length captures in
  Heading (1, title meta)
  :: Meta
       (Printf.sprintf "Horizon: %s · seed %Ld · %d system%s"
          (if meta.quick then "quick" else "full")
          meta.seed n (plural n))
  :: List.concat_map capture captures

(* ------------------------------------------------------------------ *)
(* Markdown                                                             *)

let rec md_block buf block =
  let add = Buffer.add_string buf in
  let row cells =
    let cell s = String.concat "\\|" (String.split_on_char '|' s) in
    add ("| " ^ String.concat " | " (List.map cell cells) ^ " |\n")
  in
  match block with
  | Heading (level, text) -> add (String.make level '#' ^ " " ^ text ^ "\n\n")
  | Verdict (text, healthy) ->
      add
        (Printf.sprintf "### %s: %s\n\n" text (if healthy then "healthy" else "**VIOLATED**"))
  | Meta text | Para text -> add (text ^ "\n\n")
  | Table (header, rows) ->
      row header;
      add ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
      List.iter row rows;
      add "\n"
  | Pre lines -> add ("```\n" ^ String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ "```\n\n")
  | Timeline (_, points) ->
      let peak = List.fold_left (fun acc (_, v) -> Float.max acc v) 1.0 points in
      md_block buf
        (Pre
           (List.map
              (fun (t, v) ->
                Printf.sprintf "%6.1f s  %s %.0f" (t /. 1000.0)
                  (String.make (max 1 (int_of_float (40.0 *. v /. peak))) '#')
                  v)
              points))

let markdown meta captures =
  let buf = Buffer.create (1 lsl 14) in
  List.iter (md_block buf) (document meta captures);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* HTML                                                                 *)

let escape s =
  String.to_seq s
  |> Seq.map (function
       | '&' -> "&amp;"
       | '<' -> "&lt;"
       | '>' -> "&gt;"
       | '"' -> "&quot;"
       | c -> String.make 1 c)
  |> List.of_seq |> String.concat ""

let style =
  {|body{font-family:ui-sans-serif,system-ui,sans-serif;margin:2rem auto;max-width:60rem;
padding:0 1rem;color:#1a1a1a;line-height:1.45}
h1{border-bottom:2px solid #ddd;padding-bottom:.3rem}
h2{margin-top:2.2rem;border-bottom:1px solid #eee;padding-bottom:.2rem}
table{border-collapse:collapse;margin:.6rem 0 1.2rem}
th,td{border:1px solid #ddd;padding:.25rem .6rem;text-align:left;
font-variant-numeric:tabular-nums}
th{background:#f5f5f5}
pre{background:#f7f7f8;border:1px solid #eee;border-radius:4px;
padding:.6rem .8rem;overflow-x:auto;font-size:.85rem}
.violated{color:#b00020;font-weight:600}
.healthy{color:#0a7a32;font-weight:600}
svg{margin:.4rem 0 1rem}
.meta{color:#666}|}

(* Inline-SVG throughput polyline: no external assets, fixed viewport,
   the x axis spanning the run's horizon. *)
let svg ~horizon_ms points =
  let w = 640.0 and h = 140.0 and pad = 4.0 in
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 1.0 points in
  let coords =
    List.map
      (fun (t, v) ->
        Printf.sprintf "%.1f,%.1f"
          (pad +. ((w -. (2.0 *. pad)) *. t /. horizon_ms))
          (h -. pad -. ((h -. (2.0 *. pad)) *. v /. vmax)))
      points
  in
  Printf.sprintf
    "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" role=\"img\" \
     aria-label=\"committed throughput\">\n\
     <rect width=\"%.0f\" height=\"%.0f\" fill=\"#fafafa\" stroke=\"#e0e0e0\"/>\n\
     <polyline fill=\"none\" stroke=\"#2a6fdb\" stroke-width=\"1.5\" points=\"%s\"/>\n\
     <text x=\"%.0f\" y=\"14\" font-size=\"11\" fill=\"#666\" text-anchor=\"end\">peak \
     %.0f txn/s · %.0f s</text>\n\
     </svg>\n"
    w h w h w h (String.concat " " coords) (w -. 8.0) vmax (horizon_ms /. 1000.0)

let html_block buf block =
  let add = Buffer.add_string buf in
  let cells tag row =
    String.concat "" (List.map (fun v -> Printf.sprintf "<%s>%s</%s>" tag (escape v) tag) row)
  in
  match block with
  | Heading (level, text) -> add (Printf.sprintf "<h%d>%s</h%d>\n" level (escape text) level)
  | Verdict (text, healthy) ->
      let cls, word = if healthy then ("healthy", "healthy") else ("violated", "VIOLATED") in
      add (Printf.sprintf "<h3>%s: <span class=\"%s\">%s</span></h3>\n" (escape text) cls word)
  | Meta text -> add (Printf.sprintf "<p class=\"meta\">%s</p>\n" (escape text))
  | Para text -> add (Printf.sprintf "<p>%s</p>\n" (escape text))
  | Table (header, rows) ->
      add ("<table><tr>" ^ cells "th" header ^ "</tr>");
      List.iter (fun row -> add ("<tr>" ^ cells "td" row ^ "</tr>")) rows;
      add "</table>\n"
  | Pre lines ->
      add ("<pre>" ^ String.concat "" (List.map (fun l -> escape l ^ "\n") lines) ^ "</pre>\n")
  | Timeline (_, []) -> ()
  | Timeline (horizon_ms, points) -> add (svg ~horizon_ms points)

let html meta captures =
  let buf = Buffer.create (1 lsl 15) in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n\
        <title>%s</title>\n<style>%s</style>\n</head>\n<body>\n"
       (escape (title meta)) style);
  List.iter (html_block buf) (document meta captures);
  Buffer.add_string buf "</body>\n</html>\n";
  Buffer.contents buf
