"""Self-contained HTML report over the observability artifacts.

``python -m repro report`` renders everything a run leaves behind --
the verification ledger (``verify --ledger-out``), the Chrome-trace
span JSONL (``--trace-out``), and the committed bench-history store --
into ONE html file with inline CSS and no external dependencies or
scripts: it opens from a CI artifact download, an email attachment, or
``file://`` with nothing else installed. Interactivity is CSS-only
(hover tooltips via ``title`` attributes); light/dark follows
``prefers-color-scheme``.

Sections (each degrades to a note when its input file is absent):

* KPI tiles: obligation counts, status breakdown, total solver effort;
* the hot-obligation table: top obligations ranked by *deterministic*
  solver effort (conflicts, decisions, CNF clauses -- not wall time, so
  the ranking is identical across ``--jobs`` values), each row linking
  fingerprint -> source location -> tier -> effort;
* discharge-tier breakdown bar;
* the span timeline, one lane per process (worker pids from ``--jobs N``
  runs appear as their own lanes);
* per-category trace-event counts;
* bench-trend sparklines from ``benchmarks/history/``.
"""

from __future__ import annotations

import html
import json
import os
from typing import Dict, List, Optional, Tuple

from . import tracing
from .ledger import load_jsonl as _load_ledger_jsonl

#: Fixed category -> categorical-slot assignment (never cycled; unknown
#: categories wear the muted ink, not a generated hue).
CATEGORY_SLOTS = {
    "solver": 1, "vcgen": 2, "dispatch": 3, "compiler": 4,
    "riscv": 5, "kami": 6, "end2end": 7, "platform": 8,
}

#: Validated categorical palette (light, dark) per slot 1..8.
_SLOT_COLORS = {
    1: ("#2a78d6", "#3987e5"),
    2: ("#eb6834", "#d95926"),
    3: ("#1baf7a", "#199e70"),
    4: ("#eda100", "#c98500"),
    5: ("#e87ba4", "#d55181"),
    6: ("#008300", "#008300"),
    7: ("#4a3aa7", "#9085e9"),
    8: ("#e34948", "#e66767"),
}

_MAX_TIMELINE_SPANS = 4000
_HOT_ROWS = 25

_esc = html.escape


def effort_score(record: Dict) -> int:
    """Deterministic hotness of one obligation: SAT conflicts dominate,
    then decisions, then formula size. No wall-clock term -- the ranking
    must not depend on machine load or worker scheduling."""
    effort = record.get("effort") or {}
    return (effort.get("conflicts", 0) * 10_000
            + effort.get("decisions", 0) * 100
            + effort.get("cnf_clauses", 0))


# ---------------------------------------------------------------- inputs


def _load_ledger(path: Optional[str]) -> Optional[List[Dict]]:
    if not path or not os.path.exists(path):
        return None
    return _load_ledger_jsonl(path)


def _load_trace(path: Optional[str]) -> Optional[List[Dict]]:
    if not path or not os.path.exists(path):
        return None
    return tracing.load_jsonl(path)


def _load_history(history_dir: Optional[str]) -> Dict[str, List[Dict]]:
    """The ``benchmarks/history/`` store: {benchmark: [entries]} (same
    format as benchmarks/history.py, re-read here so the report stays
    importable without the benchmarks directory)."""
    out: Dict[str, List[Dict]] = {}
    if not history_dir or not os.path.isdir(history_dir):
        return out
    for fname in sorted(os.listdir(history_dir)):
        if not fname.endswith(".jsonl"):
            continue
        entries = []
        with open(os.path.join(history_dir, fname)) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and "results" in entry:
                    entries.append(entry)
        if entries:
            out[fname[:-len(".jsonl")]] = entries
    return out


# ------------------------------------------------------------- sections


def _tile(value: str, label: str) -> str:
    return ('<div class="tile"><div class="tile-value">%s</div>'
            '<div class="tile-label">%s</div></div>'
            % (_esc(value), _esc(label)))


def _section_kpis(records: Optional[List[Dict]],
                  events: Optional[List[Dict]]) -> str:
    tiles = []
    if records is not None:
        by_status: Dict[str, int] = {}
        for record in records:
            by_status[record.get("status", "?")] = \
                by_status.get(record.get("status", "?"), 0) + 1
        effort_total = sum((r.get("effort") or {}).get("conflicts", 0)
                           for r in records)
        decisions = sum((r.get("effort") or {}).get("decisions", 0)
                        for r in records)
        distinct = len({r.get("fp") for r in records})
        tiles.append(_tile(str(len(records)), "obligations"))
        tiles.append(_tile(str(by_status.get("proved", 0)), "proved"))
        if by_status.get("timeout"):
            tiles.append(_tile(str(by_status["timeout"]), "timed out"))
        if by_status.get("unprovable"):
            tiles.append(_tile(str(by_status["unprovable"]), "unprovable"))
        tiles.append(_tile(str(distinct), "distinct formulas"))
        tiles.append(_tile("{:,}".format(effort_total), "SAT conflicts"))
        tiles.append(_tile("{:,}".format(decisions), "SAT decisions"))
    if events is not None:
        pids = {e.get("pid") for e in events}
        tiles.append(_tile(str(len(events)), "trace events"))
        tiles.append(_tile(str(len(pids)), "processes"))
    if not tiles:
        return ('<p class="absent">No ledger or trace input found; run '
                '<code>python -m repro verify --ledger-out ledger.jsonl '
                '--trace-out trace.jsonl</code> first.</p>')
    return '<div class="tiles">%s</div>' % "".join(tiles)


def _fp_cell(fp: Optional[str]) -> str:
    if not fp:
        return "&mdash;"
    return '<code class="fp" title="%s">%s</code>' % (_esc(fp), _esc(fp[:12]))


def _section_hot_table(records: Optional[List[Dict]]) -> str:
    if records is None:
        return ('<p class="absent">Ledger file not found &mdash; pass '
                '<code>--ledger</code> or run <code>verify '
                '--ledger-out</code>.</p>')
    ranked = sorted(records, key=lambda r: (-effort_score(r),
                                            r.get("function", ""),
                                            r.get("seq", 0)))
    rows = []
    for record in ranked[:_HOT_ROWS]:
        effort = record.get("effort") or {}
        rows.append(
            "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td><span class=\"badge badge-%s\">%s</span></td>"
            "<td>%s</td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td></tr>"
            % (_esc(record.get("function") or "?"),
               _esc(record.get("context") or ""),
               _esc(record.get("loc") or "—"),
               _fp_cell(record.get("fp")),
               _esc(record.get("status") or "?"),
               _esc(record.get("status") or "?"),
               _esc(record.get("tier") or "—"),
               "{:,}".format(effort.get("conflicts", 0)),
               "{:,}".format(effort.get("decisions", 0)),
               "{:,}".format(effort.get("cnf_clauses", 0))))
    dropped = len(records) - min(len(records), _HOT_ROWS)
    note = ("<p class=\"note\">Top %d of %d obligations by deterministic "
            "solver effort; %d not shown.</p>"
            % (min(len(records), _HOT_ROWS), len(records), dropped)
            if dropped else "")
    return ("<table><thead><tr><th>function</th><th>context</th>"
            "<th>source</th><th>fingerprint</th><th>status</th>"
            "<th>tier</th><th class=\"num\">conflicts</th>"
            "<th class=\"num\">decisions</th>"
            "<th class=\"num\">cnf clauses</th></tr></thead>"
            "<tbody>%s</tbody></table>%s" % ("".join(rows), note))


_TIER_ORDER = ("prescreen", "cache", "structural", "interval", "sat")
_TIER_SLOT = {"prescreen": 3, "cache": 7, "structural": 1,
              "interval": 4, "sat": 2}


def _section_tiers(records: Optional[List[Dict]]) -> str:
    if records is None:
        return '<p class="absent">Requires the ledger input.</p>'
    counts = {tier: 0 for tier in _TIER_ORDER}
    other = 0
    for record in records:
        tier = record.get("tier")
        if tier in counts:
            counts[tier] += 1
        else:
            other += 1
    total = sum(counts.values()) + other
    if not total:
        return '<p class="absent">No discharged obligations recorded.</p>'
    segments = []
    legend = []
    for tier in _TIER_ORDER:
        n = counts[tier]
        if not n:
            continue
        color = "var(--cat%d)" % _TIER_SLOT[tier]
        segments.append(
            '<div class="seg" style="width:%.2f%%;background:%s" '
            'title="%s: %d obligations (%.0f%%)"></div>'
            % (100.0 * n / total, color, _esc(tier), n, 100.0 * n / total))
        legend.append('<span class="key"><span class="swatch" '
                      'style="background:%s"></span>%s (%d)</span>'
                      % (color, _esc(tier), n))
    if other:
        segments.append('<div class="seg" style="width:%.2f%%;'
                        'background:var(--muted)" title="other: %d"></div>'
                        % (100.0 * other / total, other))
        legend.append('<span class="key"><span class="swatch" '
                      'style="background:var(--muted)"></span>other (%d)'
                      '</span>' % other)
    return ('<div class="stack">%s</div><div class="legend">%s</div>'
            % ("".join(segments), "".join(legend)))


def _pair_spans(events: List[Dict]) -> List[Dict]:
    """Reassemble B/E events into spans with pid/depth/start/duration;
    per-(pid, tid) stacks keep worker lanes independent."""
    spans: List[Dict] = []
    stacks: Dict[Tuple, List[Dict]] = {}
    for event in events:
        key = (event.get("pid", 1), event.get("tid", 1))
        stack = stacks.setdefault(key, [])
        if event["ph"] == "B":
            span = {"name": event.get("name", "?"),
                    "cat": event.get("cat", ""), "pid": key[0],
                    "depth": len(stack), "ts": float(event.get("ts", 0.0)),
                    "dur": None}
            stack.append(span)
        elif event["ph"] == "E" and stack:
            span = stack.pop()
            span["dur"] = float(event.get("ts", span["ts"])) - span["ts"]
            spans.append(span)
    # Unclosed spans are dropped (truncated traces) -- noted by caller.
    return spans


def _span_color(cat: str) -> str:
    slot = CATEGORY_SLOTS.get(cat)
    return "var(--cat%d)" % slot if slot else "var(--muted)"


def _section_timeline(events: Optional[List[Dict]]) -> str:
    if events is None:
        return ('<p class="absent">Trace file not found &mdash; pass '
                '<code>--trace</code> or run with '
                '<code>--trace-out</code>.</p>')
    spans = _pair_spans(events)
    if not spans:
        return '<p class="absent">No complete spans in the trace.</p>'
    dropped = 0
    if len(spans) > _MAX_TIMELINE_SPANS:
        dropped = len(spans) - _MAX_TIMELINE_SPANS
        spans = sorted(spans, key=lambda s: -(s["dur"] or 0.0)
                       )[:_MAX_TIMELINE_SPANS]
    t_lo = min(s["ts"] for s in spans)
    t_hi = max(s["ts"] + (s["dur"] or 0.0) for s in spans)
    width = max(t_hi - t_lo, 1e-9)
    lanes: Dict[int, List[Dict]] = {}
    for span in spans:
        lanes.setdefault(span["pid"], []).append(span)
    parts = []
    row_h = 18
    for pid in sorted(lanes):
        lane = lanes[pid]
        depth = max(s["depth"] for s in lane) + 1
        bars = []
        for span in sorted(lane, key=lambda s: (s["ts"], s["depth"])):
            left = 100.0 * (span["ts"] - t_lo) / width
            pct = max(100.0 * (span["dur"] or 0.0) / width, 0.05)
            bars.append(
                '<div class="bar" style="left:%.3f%%;width:%.3f%%;'
                'top:%dpx;background:%s" title="%s [%s] %.3f ms"></div>'
                % (left, min(pct, 100.0 - left), span["depth"] * row_h,
                   _span_color(span["cat"]), _esc(span["name"]),
                   _esc(span["cat"]), (span["dur"] or 0.0) / 1000.0))
        parts.append(
            '<div class="lane"><div class="lane-label">pid %d</div>'
            '<div class="lane-track" style="height:%dpx">%s</div></div>'
            % (pid, depth * row_h, "".join(bars)))
    cats = sorted({s["cat"] for s in spans},
                  key=lambda c: CATEGORY_SLOTS.get(c, 99))
    legend = "".join('<span class="key"><span class="swatch" '
                     'style="background:%s"></span>%s</span>'
                     % (_span_color(cat), _esc(cat)) for cat in cats)
    note = ("<p class=\"note\">%d longest spans shown; %d shorter spans "
            "omitted.</p>" % (len(spans), dropped)) if dropped else ""
    span_ms = width / 1000.0
    return ('<p class="note">%d spans over %.1f ms across %d process%s '
            '(hover a bar for name and duration).</p>'
            '<div class="timeline">%s</div><div class="legend">%s</div>%s'
            % (len(spans), span_ms, len(lanes),
               "" if len(lanes) == 1 else "es", "".join(parts), legend,
               note))


def _section_trace_stats(events: Optional[List[Dict]]) -> str:
    if events is None:
        return '<p class="absent">Requires the trace input.</p>'
    by_cat: Dict[str, int] = {}
    instants = 0
    for event in events:
        by_cat[event.get("cat", "?")] = by_cat.get(event.get("cat", "?"),
                                                   0) + 1
        if event.get("ph") == "i":
            instants += 1
    rows = "".join(
        '<tr><td><span class="swatch" style="background:%s"></span>'
        "%s</td><td class=\"num\">%d</td></tr>"
        % (_span_color(cat), _esc(cat), n)
        for cat, n in sorted(by_cat.items(), key=lambda kv: -kv[1]))
    return ("<table><thead><tr><th>category</th>"
            "<th class=\"num\">events</th></tr></thead><tbody>%s"
            "</tbody></table><p class=\"note\">%d instant events "
            "(pipeline stalls, squashes, redirects, MMIO, dispatch "
            "tasks) among %d total.</p>" % (rows, instants, len(events)))


def _sparkline(values: List[float], label: str, latest_label: str) -> str:
    """A 12-point inline-SVG sparkline in the series-1 hue with a
    marker + value label on the last point."""
    pts = values[-12:]
    w, h, pad = 220, 44, 4
    lo, hi = min(pts), max(pts)
    spread = (hi - lo) or 1.0
    n = len(pts)
    coords = []
    for i, v in enumerate(pts):
        x = pad + (w - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        y = h - pad - (h - 2 * pad) * ((v - lo) / spread)
        coords.append((x, y))
    poly = " ".join("%.1f,%.1f" % c for c in coords)
    last_x, last_y = coords[-1]
    return ('<div class="spark"><div class="spark-name">%s</div>'
            '<svg width="%d" height="%d" role="img" aria-label="%s">'
            '<polyline points="%s" fill="none" stroke="var(--series-1)" '
            'stroke-width="2"/>'
            '<circle cx="%.1f" cy="%.1f" r="3" fill="var(--series-1)"/>'
            "</svg><div class=\"spark-value\">%s</div></div>"
            % (_esc(label), w, h, _esc(label), poly, last_x, last_y,
               _esc(latest_label)))


def _section_history(history: Dict[str, List[Dict]]) -> str:
    if not history:
        return ('<p class="absent">No bench history found &mdash; append '
                'runs with <code>python3 perfbench/run.py '
                '--append-history</code>.</p>')
    sparks = []
    for benchmark in sorted(history):
        entries = history[benchmark]
        series: Dict[str, List[float]] = {}
        for entry in entries:
            for name, wall in (entry.get("results") or {}).items():
                series.setdefault(name, []).append(float(wall))
        for name in sorted(series):
            values = series[name]
            sparks.append(_sparkline(
                values, "%s / %s" % (benchmark, name),
                "%.2fs over %d run%s" % (values[-1], len(values),
                                         "" if len(values) == 1 else "s")))
    return '<div class="sparks">%s</div>' % "".join(sparks)


# ----------------------------------------------------------------- page


_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a; --cat4: #eda100;
  --cat5: #e87ba4; --cat6: #008300; --cat7: #4a3aa7; --cat8: #e34948;
  --good: #0ca30c; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70; --cat4: #c98500;
    --cat5: #d55181; --cat6: #008300; --cat7: #9085e9; --cat8: #e66767;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 12px; color: var(--ink); }
.subtitle { color: var(--ink-2); margin: 0 0 20px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 20px; }
.tile-value { font-size: 24px; font-weight: 600; }
.tile-label { color: var(--ink-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; color: var(--muted); font-weight: 500;
  font-size: 12px; border-bottom: 1px solid var(--grid); padding: 4px 8px; }
td { padding: 4px 8px; border-bottom: 1px solid var(--grid); }
tr:last-child td { border-bottom: none; }
th.num, td.num { text-align: right;
  font-variant-numeric: tabular-nums; }
code, .fp { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
  font-size: 12px; color: var(--ink-2); }
.badge { font-size: 11px; padding: 1px 7px; border-radius: 9px;
  border: 1px solid var(--border); color: var(--ink-2); }
.badge-proved { color: var(--good); border-color: var(--good); }
.badge-timeout { color: var(--bad); border-color: var(--bad); }
.badge-unprovable { color: var(--bad); border-color: var(--bad); }
.stack { display: flex; height: 22px; border-radius: 4px;
  overflow: hidden; gap: 2px; background: var(--page); }
.seg { height: 100%; }
.legend { margin-top: 10px; color: var(--ink-2); font-size: 12px;
  display: flex; flex-wrap: wrap; gap: 14px; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 2px; }
.timeline { border: 1px solid var(--grid); border-radius: 6px;
  padding: 8px; overflow: hidden; }
.lane { display: flex; gap: 8px; padding: 4px 0;
  border-bottom: 1px solid var(--grid); }
.lane:last-child { border-bottom: none; }
.lane-label { flex: 0 0 64px; color: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
.lane-track { position: relative; flex: 1 1 auto; min-height: 18px; }
.bar { position: absolute; height: 14px; border-radius: 3px;
  min-width: 1px; }
.note { color: var(--muted); font-size: 12px; margin: 8px 0 0; }
.absent { color: var(--muted); font-style: italic; }
.sparks { display: flex; flex-wrap: wrap; gap: 18px; }
.spark-name { font-size: 12px; color: var(--ink-2); }
.spark-value { font-size: 12px; color: var(--ink);
  font-variant-numeric: tabular-nums; }
footer { color: var(--muted); font-size: 12px; margin-top: 20px; }
"""


def _load_fleet(path: Optional[str]) -> Optional[Dict]:
    """A fleet report from ``python -m repro fleet --json`` (None when
    the file is absent or not a fleet report)."""
    if not path or not os.path.isfile(path):
        return None
    try:
        with open(path) as fh:
            report = json.load(fh)
    except ValueError:
        return None
    if not isinstance(report, dict) or "summary" not in report \
            or "nodes" not in report:
        return None
    return report


def _section_fleet(fleet: Optional[Dict]) -> str:
    if fleet is None:
        return ('<p class="absent">Fleet report not found &mdash; run '
                '<code>python -m repro fleet --json fleet.json</code> '
                'and pass <code>--fleet</code>.</p>')
    summary = fleet.get("summary", {})
    config = fleet.get("config", {})
    switch = fleet.get("fabric", {}).get("switch", {})
    tiles = [
        _tile("%d/%d" % (summary.get("nodes_ok", 0),
                         summary.get("nodes", 0)), "nodes within spec"),
        _tile(str(summary.get("violations", 0)), "spec violations"),
        _tile(str(summary.get("frames_offered", 0)), "frames offered"),
        _tile(str(switch.get("frames_in", 0)), "frames switched"),
        _tile(str(switch.get("queue_overflows", 0)), "queue overflows"),
        _tile(str(summary.get("nic_dropped", 0)), "NIC drops"),
        _tile("{:,}".format(summary.get("instructions", 0)),
              "instructions"),
        _tile(str(summary.get("spec_checks", 0)), "spec checks"),
    ]
    rows = []
    for node in fleet.get("nodes", []):
        status = "ok" if node.get("ok") else "FAIL"
        rows.append(
            "<tr><td>%s</td><td>%s</td><td><code>%s</code></td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td>"
            "<td><span class=\"badge badge-%s\">%s</span></td></tr>"
            % (_esc(str(node.get("node", "?"))),
               _esc(node.get("kind") or "?"),
               _esc(node.get("mac") or "?"),
               "{:,}".format(node.get("instructions", 0)),
               str(node.get("frames_delivered", 0)),
               str(node.get("frames_accepted", 0)),
               str(node.get("nic_dropped", 0)),
               str(node.get("actuations", 0)),
               "proved" if node.get("ok") else "timeout",
               _esc(status)))
    links = []
    for port in switch.get("ports", []):
        link = port.get("link", {})
        if not link.get("offered"):
            continue
        links.append(
            "<tr><td>%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td></tr>"
            % (_esc(port.get("name") or "?"),
               str(link.get("offered", 0)), str(link.get("dropped", 0)),
               str(link.get("duplicated", 0)),
               str(link.get("corrupted", 0)),
               str(link.get("reordered", 0)),
               str(port.get("overflows", 0))))
    note = ("<p class=\"note\">%s node(s), %s units, profile "
            "<code>%s</code>, seed %s &mdash; per-link fault accounting "
            "below.</p>"
            % (_esc(str(config.get("nodes", "?"))),
               _esc(str(config.get("duration", "?"))),
               _esc(str(config.get("profile", "?"))),
               _esc(str(config.get("seed", "?")))))
    return ('<div class="tiles">%s</div>%s'
            "<table><thead><tr><th>node</th><th>kind</th><th>mac</th>"
            "<th class=\"num\">instructions</th>"
            "<th class=\"num\">delivered</th><th class=\"num\">accepted</th>"
            "<th class=\"num\">NIC drops</th>"
            "<th class=\"num\">actuations</th><th>status</th></tr></thead>"
            "<tbody>%s</tbody></table>"
            "<table><thead><tr><th>link</th><th class=\"num\">offered</th>"
            "<th class=\"num\">dropped</th><th class=\"num\">duplicated</th>"
            "<th class=\"num\">corrupted</th><th class=\"num\">reordered</th>"
            "<th class=\"num\">queue overflows</th></tr></thead>"
            "<tbody>%s</tbody></table>"
            % ("".join(tiles), note, "".join(rows), "".join(links)))


def _load_wcet(path: Optional[str]) -> Optional[Dict]:
    """A timing artifact from ``python -m repro wcet --json`` (None when
    the file is absent or not a wcet artifact)."""
    if not path or not os.path.isfile(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("format") != "repro-wcet":
        return None
    return doc


def _section_wcet(wcet: Optional[Dict]) -> str:
    if wcet is None:
        return ('<p class="absent">Timing artifact not found &mdash; run '
                '<code>python -m repro wcet --json wcet.json</code> '
                'and pass <code>--wcet</code>.</p>')
    tight = wcet.get("tightness") or {}
    drift = wcet.get("drift") or []
    tiles = [
        _tile(str(tight.get("mean", "&mdash;")), "mean WCET tightness"),
        _tile(str(tight.get("max", "&mdash;")), "max WCET tightness"),
        _tile("%s/%s" % (tight.get("proved", 0), tight.get("seeds", 0)),
              "fuzz programs proved"),
        _tile("sound" if tight.get("sound") else "VIOLATED",
              "measured &le; static"),
        _tile(str(len(drift)), "cost-model drift findings"),
    ]
    rows = []
    for name, app in sorted((wcet.get("apps") or {}).items()):
        report = app.get("report", {})
        budgets = app.get("budgets", {})
        over = app.get("budget_findings", [])
        n_findings = len(report.get("findings", []))

        def cell(key: str, budget_key: str) -> str:
            value = report.get(key)
            budget = budgets.get(budget_key)
            shown = "{:,}".format(value) if isinstance(value, int) \
                else "&mdash;"
            if isinstance(value, int) and isinstance(budget, int):
                shown += " / {:,}".format(budget)
            return shown

        status = "proved" if not (n_findings or over) else "timeout"
        label = "proved" if not (n_findings or over) else "FAIL"
        rows.append(
            "<tr><td>%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%s</td><td class=\"num\">%s</td>"
            "<td class=\"num\">%d</td>"
            "<td><span class=\"badge badge-%s\">%s</span></td></tr>"
            % (_esc(name), cell("startup_cycles", "startup_cycles"),
               cell("iteration_cycles", "iteration_cycles"),
               cell("stack_bound", "stack_bytes"), n_findings,
               status, label))
    note = ("<p class=\"note\">Static bounds are in successful "
            "pipeline-rule firings (the repo's cycle currency); "
            "tightness = static bound / measured worst case on "
            "generated programs. Cells show bound / budget.</p>")
    return ('<div class="tiles">%s</div>%s'
            "<table><thead><tr><th>app</th>"
            "<th class=\"num\">startup (firings)</th>"
            "<th class=\"num\">per-iteration (firings)</th>"
            "<th class=\"num\">stack (bytes)</th>"
            "<th class=\"num\">findings</th><th>status</th></tr></thead>"
            "<tbody>%s</tbody></table>"
            % ("".join(tiles), note, "".join(rows)))


def build_report(ledger_path: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 history_dir: Optional[str] = None,
                 fleet_path: Optional[str] = None,
                 wcet_path: Optional[str] = None,
                 title: str = "repro verification report") -> str:
    """Render the report; every input is optional and a missing file
    degrades to an in-page note so the command never fails on partial
    artifacts."""
    records = _load_ledger(ledger_path)
    events = _load_trace(trace_path)
    history = _load_history(history_dir)
    fleet = _load_fleet(fleet_path)
    wcet = _load_wcet(wcet_path)

    inputs = []
    for label, path, present in (
            ("ledger", ledger_path, records is not None),
            ("trace", trace_path, events is not None),
            ("fleet", fleet_path, fleet is not None),
            ("wcet", wcet_path, wcet is not None),
            ("history", history_dir, bool(history))):
        if path:
            inputs.append("%s: %s%s" % (label, path,
                                        "" if present else " (absent)"))
    subtitle = " &middot; ".join(_esc(part) for part in inputs) or \
        "no inputs provided"

    def card(heading: str, body: str) -> str:
        return '<div class="card"><h2>%s</h2>%s</div>' % (_esc(heading),
                                                          body)

    body = [
        "<h1>%s</h1>" % _esc(title),
        '<p class="subtitle">%s</p>' % subtitle,
        card("Run at a glance", _section_kpis(records, events)),
        card("Hot obligations", _section_hot_table(records)),
        card("Discharge tiers", _section_tiers(records)),
        card("Span timeline", _section_timeline(events)),
        card("Trace events by layer", _section_trace_stats(events)),
        card("Fleet under adversarial links", _section_fleet(fleet)),
        card("Static timing &amp; stack bounds", _section_wcet(wcet)),
        card("Bench trends", _section_history(history)),
        "<footer>Generated by <code>python -m repro report</code> "
        "&mdash; self-contained, no scripts, no external assets.</footer>",
    ]
    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">\n"
            "<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n"
            "%s\n</body>\n</html>\n"
            % (_esc(title), _CSS, "\n".join(body)))
