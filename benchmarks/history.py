"""The bench-history store: one JSONL file per benchmark.

`perfbench/compare.py` gates a change against its parent; this module
keeps the *trajectory* -- each run appended as one line under
``benchmarks/history/<benchmark>.jsonl``::

    {"t": "2026-08-09T12:00:00+00:00", "sha": "cd365f9",
     "results": {"theorem_isa": 0.071, ...}}

The store is what `python -m repro report` renders as trend sparklines,
turning the ROADMAP's "fast as the hardware allows" goal into a visible
line instead of a pair of numbers. Append a perfbench suite run (each
workload's median ``wall_s``, to ``suite.jsonl``) with::

    python3 perfbench/run.py --append-history
"""

import datetime
import json
import os
import subprocess

DEFAULT_HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")


def git_sha():
    """Short commit sha of the working tree, or None outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def append_record(benchmark, walls, history_dir=None, t=None, sha=None):
    """Append one run of ``benchmark`` (a ``{result: wall_seconds}``
    dict) to its history file; returns the path written."""
    history_dir = history_dir or DEFAULT_HISTORY_DIR
    os.makedirs(history_dir, exist_ok=True)
    if t is None:
        t = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
    if sha is None:
        sha = git_sha()
    entry = {"t": t, "sha": sha,
             "results": {name: round(wall, 4)
                         for name, wall in sorted(walls.items())}}
    path = os.path.join(history_dir, "%s.jsonl" % benchmark)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True))
        fh.write("\n")
    return path


def load_history(history_dir=None):
    """All committed history: ``{benchmark: [entry, ...]}`` in file
    order (oldest first). Malformed lines are skipped, not fatal."""
    history_dir = history_dir or DEFAULT_HISTORY_DIR
    out = {}
    if not os.path.isdir(history_dir):
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
