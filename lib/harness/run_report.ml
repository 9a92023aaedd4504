(* Self-contained run reports — the `samya_cli report` artifact.

   One document per invocation, rendering every captured system's
   outcome, SLO verdict, throughput timeline, mechanism attribution,
   hot-key telemetry and watchdog incidents (with the first incident's
   black-box bundle) from the always-on incident layer. Two formats from
   the same computed view: GitHub-flavoured markdown and a single-file
   HTML page with inline styles and an inline-SVG throughput figure —
   no external assets, so the CI artifact opens anywhere.

   Determinism: everything here is a pure function of the captures and
   the run metadata (no wall-clock stamps), so reports are byte-identical
   for a given seed at any --jobs level. *)

type meta = { experiment : string; quick : bool; seed : int64 }

(* ------------------------------------------------------------------ *)
(* The computed view shared by both renderers                           *)

let outcome_pairs (c : Scenario.capture) =
  let r = c.Scenario.result in
  [
    ("committed", string_of_int r.Driver.committed);
    ("rejected", string_of_int r.Driver.rejected);
    ("unavailable", string_of_int r.Driver.unavailable);
    ("shed", string_of_int r.Driver.shed);
    ("timed out", string_of_int r.Driver.timed_out);
    ("retries", string_of_int r.Driver.retries);
    ("avg throughput", Report.f1 (Driver.average_tps r) ^ " txn/s");
    ("p50 latency", Report.ms (Driver.percentile r 50.0));
    ("p95 latency", Report.ms (Driver.percentile r 95.0));
    ("p99 latency", Report.ms (Driver.percentile r 99.0));
  ]

(* What the defenses and the protocol did, straight from the recorder:
   event counts by kind, sheds split by cause, mechanism transitions. *)
let attribution_pairs (c : Scenario.capture) =
  let events = Obs.Flight_recorder.events c.Scenario.flight in
  let count p = List.length (List.filter p events) in
  let kind k (ev : Obs.Flight_recorder.event) = ev.Obs.Flight_recorder.kind = k in
  let shed why (ev : Obs.Flight_recorder.event) =
    kind Obs.Flight_recorder.Shed ev && ev.Obs.Flight_recorder.detail = why
  in
  let s = c.Scenario.stats in
  [
    ("redistributions", string_of_int s.Systems.redistributions);
    ("borrows", string_of_int s.Systems.borrows);
    ("mechanism switches", string_of_int s.Systems.mechanism_switches);
    ("protocol events", string_of_int (count (kind Obs.Flight_recorder.Protocol)));
    ("breaker trips", string_of_int (count (kind Obs.Flight_recorder.Breaker)));
    ("sheds (deadline)", string_of_int (count (shed "deadline")));
    ("sheds (admission)", string_of_int (count (shed "admission")));
    ("sheds (queue expired)", string_of_int (count (shed "queue_expired")));
    ("faults injected", string_of_int (count (kind Obs.Flight_recorder.Fault)));
    ("SLO breaches", string_of_int (count (kind Obs.Flight_recorder.Slo_breach)));
    ( "recorder",
      Printf.sprintf "%d events (%d dropped)"
        (Obs.Flight_recorder.recorded c.Scenario.flight)
        (Obs.Flight_recorder.dropped c.Scenario.flight) );
  ]

let hot_top (c : Scenario.capture) =
  Obs.Heavy_hitters.top ~n:8
    (Obs.Heavy_hitters.Windowed.cumulative c.Scenario.hot)

(* The first incident's black box: the bundle a post-incident review
   starts from. *)
let first_bundle (c : Scenario.capture) =
  match c.Scenario.incidents with
  | [] -> None
  | incident :: _ ->
      Some
        (Obs.Watchdog.bundle ~hot:c.Scenario.hot
           (Obs.Flight_recorder.events c.Scenario.flight)
           incident)

let throughput_points (c : Scenario.capture) =
  Stats.Throughput.series c.Scenario.result.Driver.throughput
    ~until_ms:c.Scenario.result.Driver.duration_ms ()

(* Downsample a windowed series to at most [target] buckets (mean within
   each bucket) — keeps the markdown sparkline and the SVG polyline
   readable on long horizons. *)
let downsample ~target points =
  let n = List.length points in
  if n <= target then points
  else begin
    let arr = Array.of_list points in
    let per = float_of_int n /. float_of_int target in
    List.init target (fun i ->
        let lo = int_of_float (float_of_int i *. per) in
        let hi = min (n - 1) (int_of_float (float_of_int (i + 1) *. per) - 1) in
        let hi = max lo hi in
        let sum = ref 0.0 in
        for j = lo to hi do
          sum := !sum +. snd arr.(j)
        done;
        (fst arr.(lo), !sum /. float_of_int (hi - lo + 1)))
  end

(* ------------------------------------------------------------------ *)
(* Markdown                                                             *)

let md_table buf ~header rows =
  let cell s = String.concat "\\|" (String.split_on_char '|' s) in
  Buffer.add_string buf ("| " ^ String.concat " | " (List.map cell header) ^ " |\n");
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
  List.iter
    (fun row ->
      Buffer.add_string buf ("| " ^ String.concat " | " (List.map cell row) ^ " |\n"))
    rows;
  Buffer.add_char buf '\n'

let md_sparkline buf points =
  let points = downsample ~target:24 points in
  let peak = List.fold_left (fun acc (_, v) -> Float.max acc v) 1.0 points in
  Buffer.add_string buf "```\n";
  List.iter
    (fun (t, v) ->
      let width = int_of_float (40.0 *. v /. peak) in
      Buffer.add_string buf
        (Printf.sprintf "%6.1f s  %s %.0f\n" (t /. 1000.0)
           (String.make (max 1 width) '#')
           v))
    points;
  Buffer.add_string buf "```\n\n"

let md_capture buf (c : Scenario.capture) =
  Buffer.add_string buf (Printf.sprintf "## %s\n\n" c.Scenario.arm.Scenario.name);
  md_table buf ~header:[ "outcome"; "value" ]
    (List.map (fun (k, v) -> [ k; v ]) (outcome_pairs c));
  Buffer.add_string buf "### Committed throughput\n\n";
  md_sparkline buf (throughput_points c);
  let healthy = Obs.Slo.healthy (Obs.Slo.report c.Scenario.slo) in
  Buffer.add_string buf
    (Printf.sprintf "### SLO (samya-slo/1): %s\n\n"
       (if healthy then "healthy" else "**VIOLATED**"));
  md_table buf
    ~header:[ "objective"; "target"; "windows"; "violations"; "overall" ]
    (Scenario.slo_rows c);
  Buffer.add_string buf "### Mechanism attribution\n\n";
  md_table buf ~header:[ "source"; "count" ]
    (List.map (fun (k, v) -> [ k; v ]) (attribution_pairs c));
  (match hot_top c with
  | [] -> ()
  | top ->
      Buffer.add_string buf "### Hot keys (request-path sketch)\n\n";
      md_table buf ~header:[ "key"; "estimate" ]
        (List.map (fun (k, n) -> [ k; string_of_int n ]) top));
  let incidents = c.Scenario.incidents in
  Buffer.add_string buf
    (Printf.sprintf "### Watchdog: %d incident%s\n\n" (List.length incidents)
       (if List.length incidents = 1 then "" else "s"));
  (match Obs.Watchdog.count_by_rule incidents with
  | [] -> Buffer.add_string buf "No incidents: every rule stayed quiet.\n\n"
  | pairs ->
      md_table buf ~header:[ "rule"; "count" ]
        (List.map (fun (r, n) -> [ r; string_of_int n ]) pairs);
      Buffer.add_string buf "```\n";
      List.iteri
        (fun i incident ->
          if i < 20 then
            Buffer.add_string buf (Obs.Watchdog.incident_line incident ^ "\n"))
        incidents;
      if List.length incidents > 20 then
        Buffer.add_string buf
          (Printf.sprintf "(… %d more)\n" (List.length incidents - 20));
      Buffer.add_string buf "```\n\n");
  match first_bundle c with
  | None -> ()
  | Some b ->
      Buffer.add_string buf "### Black box (first incident)\n\n```\n";
      Buffer.add_string buf
        ("trigger: " ^ Obs.Watchdog.incident_line b.Obs.Watchdog.b_incident ^ "\n");
      List.iter
        (fun ev -> Buffer.add_string buf ("  " ^ Obs.Flight_recorder.line ev ^ "\n"))
        b.Obs.Watchdog.b_events;
      (match (b.Obs.Watchdog.b_hot, b.Obs.Watchdog.b_hot_window) with
      | [], _ -> ()
      | top, window ->
          Buffer.add_string buf
            (match window with
            | Some start ->
                Printf.sprintf "hot keys in breached window (from %.0f s):"
                  (start /. 1000.0)
            | None -> "hot keys (cumulative):");
          List.iter
            (fun (k, n) -> Buffer.add_string buf (Printf.sprintf "  %s %d" k n))
            top;
          Buffer.add_char buf '\n');
      Buffer.add_string buf "```\n\n"

let markdown meta captures =
  let buf = Buffer.create (1 lsl 14) in
  Buffer.add_string buf
    (Printf.sprintf "# Samya run report: %s\n\n" meta.experiment);
  Buffer.add_string buf
    (Printf.sprintf "Horizon: %s · seed %Ld · %d system%s\n\n"
       (if meta.quick then "quick" else "full")
       meta.seed (List.length captures)
       (if List.length captures = 1 then "" else "s"));
  List.iter (md_capture buf) captures;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* HTML                                                                 *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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

let html_table buf ~header rows =
  Buffer.add_string buf "<table><tr>";
  List.iter (fun h -> Buffer.add_string buf ("<th>" ^ escape h ^ "</th>")) header;
  Buffer.add_string buf "</tr>";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iter (fun v -> Buffer.add_string buf ("<td>" ^ escape v ^ "</td>")) row;
      Buffer.add_string buf "</tr>")
    rows;
  Buffer.add_string buf "</table>\n"

(* Inline-SVG throughput polyline: no external assets, fixed viewport. *)
let html_figure buf points =
  let points = downsample ~target:120 points in
  match points with
  | [] -> ()
  | _ ->
      let w = 640.0 and h = 140.0 and pad = 4.0 in
      let tmax =
        List.fold_left (fun acc (t, _) -> Float.max acc t) 1.0 points
      in
      let vmax =
        List.fold_left (fun acc (_, v) -> Float.max acc v) 1.0 points
      in
      let coords =
        List.map
          (fun (t, v) ->
            Printf.sprintf "%.1f,%.1f"
              (pad +. ((w -. (2.0 *. pad)) *. t /. tmax))
              (h -. pad -. ((h -. (2.0 *. pad)) *. v /. vmax)))
          points
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" \
            role=\"img\" aria-label=\"committed throughput\">\n\
            <rect width=\"%.0f\" height=\"%.0f\" fill=\"#fafafa\" \
            stroke=\"#e0e0e0\"/>\n\
            <polyline fill=\"none\" stroke=\"#2a6fdb\" stroke-width=\"1.5\" \
            points=\"%s\"/>\n\
            <text x=\"%.0f\" y=\"14\" font-size=\"11\" fill=\"#666\" \
            text-anchor=\"end\">peak %.0f txn/s · %.0f s</text>\n\
            </svg>\n"
           w h w h w h (String.concat " " coords) (w -. 8.0) vmax
           (tmax /. 1000.0))

let html_capture buf (c : Scenario.capture) =
  Buffer.add_string buf
    (Printf.sprintf "<h2>%s</h2>\n" (escape c.Scenario.arm.Scenario.name));
  Buffer.add_string buf "<h3>Outcome</h3>\n";
  html_table buf ~header:[ "outcome"; "value" ]
    (List.map (fun (k, v) -> [ k; v ]) (outcome_pairs c));
  Buffer.add_string buf "<h3>Committed throughput</h3>\n";
  html_figure buf (throughput_points c);
  let healthy = Obs.Slo.healthy (Obs.Slo.report c.Scenario.slo) in
  Buffer.add_string buf
    (Printf.sprintf
       "<h3>SLO (samya-slo/1): <span class=\"%s\">%s</span></h3>\n"
       (if healthy then "healthy" else "violated")
       (if healthy then "healthy" else "VIOLATED"));
  html_table buf
    ~header:[ "objective"; "target"; "windows"; "violations"; "overall" ]
    (Scenario.slo_rows c);
  Buffer.add_string buf "<h3>Mechanism attribution</h3>\n";
  html_table buf ~header:[ "source"; "count" ]
    (List.map (fun (k, v) -> [ k; v ]) (attribution_pairs c));
  (match hot_top c with
  | [] -> ()
  | top ->
      Buffer.add_string buf "<h3>Hot keys (request-path sketch)</h3>\n";
      html_table buf ~header:[ "key"; "estimate" ]
        (List.map (fun (k, n) -> [ k; string_of_int n ]) top));
  let incidents = c.Scenario.incidents in
  Buffer.add_string buf
    (Printf.sprintf "<h3>Watchdog: %d incident%s</h3>\n"
       (List.length incidents)
       (if List.length incidents = 1 then "" else "s"));
  (match Obs.Watchdog.count_by_rule incidents with
  | [] ->
      Buffer.add_string buf "<p>No incidents: every rule stayed quiet.</p>\n"
  | pairs ->
      html_table buf ~header:[ "rule"; "count" ]
        (List.map (fun (r, n) -> [ r; string_of_int n ]) pairs);
      Buffer.add_string buf "<pre>";
      List.iteri
        (fun i incident ->
          if i < 20 then
            Buffer.add_string buf
              (escape (Obs.Watchdog.incident_line incident) ^ "\n"))
        incidents;
      if List.length incidents > 20 then
        Buffer.add_string buf
          (Printf.sprintf "(… %d more)\n" (List.length incidents - 20));
      Buffer.add_string buf "</pre>\n");
  match first_bundle c with
  | None -> ()
  | Some b ->
      Buffer.add_string buf "<h3>Black box (first incident)</h3>\n<pre>";
      Buffer.add_string buf
        (escape
           ("trigger: " ^ Obs.Watchdog.incident_line b.Obs.Watchdog.b_incident)
        ^ "\n");
      List.iter
        (fun ev ->
          Buffer.add_string buf
            ("  " ^ escape (Obs.Flight_recorder.line ev) ^ "\n"))
        b.Obs.Watchdog.b_events;
      (match b.Obs.Watchdog.b_hot with
      | [] -> ()
      | top ->
          Buffer.add_string buf
            (match b.Obs.Watchdog.b_hot_window with
            | Some start ->
                Printf.sprintf "hot keys in breached window (from %.0f s):"
                  (start /. 1000.0)
            | None -> "hot keys (cumulative):");
          List.iter
            (fun (k, n) ->
              Buffer.add_string buf (escape (Printf.sprintf "  %s %d" k n)))
            top;
          Buffer.add_char buf '\n');
      Buffer.add_string buf "</pre>\n"

let html meta captures =
  let buf = Buffer.create (1 lsl 15) in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n\
        <title>Samya run report: %s</title>\n<style>%s</style>\n</head>\n<body>\n"
       (escape meta.experiment) style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>Samya run report: %s</h1>\n" (escape meta.experiment));
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"meta\">Horizon: %s · seed %Ld · %d system%s</p>\n"
       (if meta.quick then "quick" else "full")
       meta.seed (List.length captures)
       (if List.length captures = 1 then "" else "s"));
  List.iter (html_capture buf) captures;
  Buffer.add_string buf "</body>\n</html>\n";
  Buffer.contents buf
