#!/usr/bin/env python3
"""Compare two suite results under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.json B.json

A is the baseline and B the candidate, both written by
``perfbench/run.py --json``. One row per workload and metric:

* end-to-end medians: ``regression`` when B is worse than A by more than
  the metric's bound (a share of A's median), ``improved`` when better by
  more, ``ok`` otherwise. When either side's IQR exceeds the bound the
  two cannot be told apart and the row is ``unresolved``, unless every
  run of B reads better than every run of A;
* ``fail_frac``, ``detect_lag_events``, the digest and every counter are
  exact: any difference is ``changed`` (a rise in ``fail_frac`` is a
  ``regression``).

Exits 1 on any regression, change or missing workload.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILING = ("regression", "changed", "missing")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def compare_metric(a, b, bound, better):
    """Status and relative change (positive = worse) of one end-to-end
    metric, from the two sides' suite rows."""
    sign = 1 if better == "lower" else -1
    change = sign * (b["median"] - a["median"]) / a["median"]
    if any(side["iqr"] > bound * side["median"] for side in (a, b)):
        if better == "lower":
            b_wins = max(b["samples"]) < min(a["samples"])
        else:
            b_wins = min(b["samples"]) > max(a["samples"])
        return ("improved" if b_wins else "unresolved"), change
    if change > bound:
        return "regression", change
    if change < -bound:
        return "improved", change
    return "ok", change


def compare(a, b, spec):
    """Rows of (workload, metric, A, B, change, bound, status)."""
    rows = []
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a["workloads"] and name not in b["workloads"]:
            continue
        if name not in a["workloads"] or name not in b["workloads"]:
            rows.append((name, "-", None, None, None, None, "missing"))
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ra = wa["end_to_end"][metric["name"]]
            rb = wb["end_to_end"][metric["name"]]
            status, change = compare_metric(ra, rb, metric["bound"],
                                            metric["better"])
            rows.append((name, metric["name"], ra["median"], rb["median"],
                         change, metric["bound"], status))
        fa, fb = wa["fail_frac"], wb["fail_frac"]
        rows.append((name, "fail_frac", fa, fb, None, 0,
                     "regression" if fb > fa else
                     "changed" if fb != fa else "ok"))
        la = wa["traced"]["detect_lag_events"]
        lb = wb["traced"]["detect_lag_events"]
        rows.append((name, "detect_lag_events", la, lb, None, 0,
                     "ok" if la == lb else "changed"))
        rows.append((name, "digest", wa["digest"][:12], wb["digest"][:12],
                     None, 0, "ok" if wa["digest"] == wb["digest"]
                     else "changed"))
        differ = sorted(k for k in set(wa["counters"]) | set(wb["counters"])
                        if wa["counters"].get(k) != wb["counters"].get(k))
        for counter in differ:
            rows.append((name, counter, wa["counters"].get(counter),
                         wb["counters"].get(counter), None, 0, "changed"))
        if not differ:
            rows.append((name, "counters", len(wa["counters"]),
                         len(wb["counters"]), None, 0, "ok"))
    return rows


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("%-18s %-34s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "A", "B", "change", "bound", "status"))
    for name, metric, va, vb, change, bound, status in rows:
        print("%-18s %-34s %12s %12s %8s %6s  %s"
              % (name, metric, _cell(va), _cell(vb),
                 "-" if change is None else "%+.1f%%" % (100 * change),
                 "exact" if bound == 0 else _cell(bound), status))
    return 1 if any(row[-1] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
