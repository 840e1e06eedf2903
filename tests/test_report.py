"""The self-contained HTML report (`repro.obs.report`) and the bench
history store it renders (`benchmarks/history.py`).

The report's contract: ONE html file, inline CSS, no scripts, no
external assets -- it must open from a CI artifact download with nothing
installed -- and every input is optional (a missing file degrades to an
in-page note, never a traceback).
"""

import contextlib
import io
import json
import os
import sys

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.report import build_report, effort_score
from repro.sw.verify import verify_doorlock

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


@pytest.fixture()
def artifacts(tmp_path):
    """A real doorlock run's ledger + trace, exported to tmp files."""
    obs.enable(trace=True)
    obs.enable_ledger()
    verify_doorlock(jobs=2)
    ledger = str(tmp_path / "ledger.jsonl")
    trace = str(tmp_path / "trace.jsonl")
    obs.export_ledger(ledger)
    obs.export_trace(trace)
    return ledger, trace


def _history_dir(tmp_path):
    d = str(tmp_path / "history")
    os.makedirs(d)
    with open(os.path.join(d, "end2end.jsonl"), "w") as fh:
        for i, wall in enumerate([41.2, 40.8, 39.9]):
            fh.write(json.dumps({"t": "2026-08-0%dT00:00:00+00:00" % (i + 1),
                                 "sha": "abc1234",
                                 "results": {"theorem_isa": wall}}) + "\n")
    return d


def test_report_is_self_contained(artifacts, tmp_path):
    ledger, trace = artifacts
    html = build_report(ledger_path=ledger, trace_path=trace,
                        history_dir=_history_dir(tmp_path))
    assert html.startswith("<!DOCTYPE html>")
    # Self-contained: no scripts, no external fetches of any kind.
    assert "<script" not in html
    assert "http://" not in html and "https://" not in html
    assert 'src="' not in html and "@import" not in html
    # Dark mode is real, not an afterthought.
    assert "prefers-color-scheme" in html


def test_report_links_obligations_to_source_and_effort(artifacts,
                                                       tmp_path):
    ledger, trace = artifacts
    html = build_report(ledger_path=ledger, trace_path=trace)
    # Hot-obligation rows: function, source loc, fingerprint prefix.
    assert "doorlock_init" in html and "doorlock_loop" in html
    assert "repro/sw/doorlock.py:" in html
    records = [json.loads(line) for line in open(ledger)]
    hottest = max(records, key=effort_score)
    assert hottest["fp"][:12] in html      # short cell ...
    assert hottest["fp"] in html           # ... full hash in the tooltip
    # Timeline renders a lane per process: parent + 2 workers.
    assert html.count('class="lane"') >= 2
    assert "Discharge tiers" in html and "prescreen" in html


def test_report_degrades_per_missing_input(tmp_path):
    html = build_report(ledger_path=str(tmp_path / "no.jsonl"),
                        trace_path=None, history_dir=None)
    assert "absent" in html and "No bench history" in html
    assert "<table" not in html  # no fabricated data


def test_history_sparklines(tmp_path):
    html = build_report(history_dir=_history_dir(tmp_path))
    assert "end2end / theorem_isa" in html
    assert "<svg" in html and "polyline" in html
    assert "39.90s over 3 runs" in html


def test_effort_score_orders_by_conflicts_first():
    light = {"effort": {"conflicts": 0, "decisions": 500,
                        "cnf_clauses": 900}}
    heavy = {"effort": {"conflicts": 7, "decisions": 0, "cnf_clauses": 0}}
    assert effort_score(heavy) > effort_score(light)
    assert effort_score({}) == 0


# ------------------------------------------------------------------ CLI


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_cli_verify_ledger_out_then_report(tmp_path):
    ledger = str(tmp_path / "ledger.jsonl")
    trace = str(tmp_path / "trace.jsonl")
    report = str(tmp_path / "report.html")
    code, out = run_cli("verify", "--jobs", "2",
                        "--ledger-out", ledger, "--trace-out", trace)
    assert code == 0
    assert "obligation records" in out and "verification ledger" in out
    code, out = run_cli("report", "-o", report, "--ledger", ledger,
                        "--trace", trace)
    assert code == 0
    html = open(report).read()
    assert "lan9250_drain" in html and "<script" not in html


def test_cli_report_runs_on_missing_inputs(tmp_path):
    report = str(tmp_path / "report.html")
    code, _out = run_cli("report", "-o", report,
                         "--ledger", str(tmp_path / "no-ledger.jsonl"),
                         "--trace", str(tmp_path / "no-trace.jsonl"),
                         "--history", str(tmp_path / "no-history"))
    assert code == 0
    assert os.path.exists(report)


def test_cli_check_supports_trace_out(tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    code, out = run_cli("check", "--trace-out", trace)
    assert code == 0
    assert os.path.exists(trace)
    events = [json.loads(line) for line in open(trace)]
    assert any(e.get("ph") == "B" for e in events)


# ------------------------------------------------------- history store


def test_history_append_and_load(tmp_path):
    sys.path.insert(0, BENCH_DIR)
    try:
        import history
    finally:
        sys.path.pop(0)
    d = str(tmp_path / "hist")
    path = history.append_record("bench", {"a": 1.23456, "b": 2.0},
                                 history_dir=d, t="2026-08-09T00:00:00+00:00",
                                 sha="deadbee")
    history.append_record("bench", {"a": 1.2}, history_dir=d,
                          t="2026-08-10T00:00:00+00:00", sha="deadbef")
    assert path == os.path.join(d, "bench.jsonl")
    loaded = history.load_history(d)
    assert list(loaded) == ["bench"]
    assert loaded["bench"][0]["results"] == {"a": 1.2346, "b": 2.0}
    assert [e["sha"] for e in loaded["bench"]] == ["deadbee", "deadbef"]
