(** Self-contained run reports — the [samya_cli report] artifact.

    Renders a trace-capture list (the same captures [trace]/[explain]/
    [slo] consume) into a single document: per system, the outcome
    summary, the committed-throughput timeline, the SLO verdict, the
    mechanism attribution from the flight recorder, the request-path
    hot-key sketch and the watchdog incidents with the first incident's
    black-box bundle. The document is built once; {!markdown} and {!html}
    are two folds over it, so they carry the same sections and cells.

    Both renderers are pure functions of the captures and the run
    metadata — no wall-clock stamps — so reports are byte-identical for
    a given seed at any [--jobs] level. *)

type meta = { experiment : string; quick : bool; seed : int64 }

val markdown : meta -> Scenario.capture list -> string
(** GitHub-flavoured markdown: pipe tables, fenced code blocks for the
    incident log and black box, an ASCII sparkline for throughput (one
    line per window). *)

val html : meta -> Scenario.capture list -> string
(** One self-contained HTML page (inline styles, inline-SVG throughput
    figure, no external assets) — the CI artifact. *)
