#!/usr/bin/env python3
"""The repository benchmark: six workloads, end-to-end metrics, per-layer
self time.

One run of one workload. The last line of standard output is a JSON
summary with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``)::

    python3 perfbench/run.py --workload theorem_isa --seed 0 --seconds 15 --trace 0

The suite: each repeat of each workload in a fresh child process, one at
a time, repeats round-robin across workloads, then one traced run per
workload. Prints every metric with its unit and exits non-zero if a
verdict is wrong or repeats of a workload disagree::

    python3 perfbench/run.py [--seed 0] [--repeats 3] [--only W,..] \\
        [--json OUT] [--trace-dir DIR] [--append-history]

A run sets up its workload (imports, image compiles, stimulus), runs the
first item once untimed to warm up, then runs passes over the workload's
items until ``--seconds`` have elapsed, always finishing the first pass.
``wall_s`` is the sum over items of each item's median time: the time of
one pass. Set-up is timed from process start, in this process and in four
set-up-only children run between items; ``setup_s`` is the median of the
five. Every time is scaled to the reference host's speed, which a
`hostspeed.Meter` samples while each item and each set-up runs.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for on-disk proof caches; removed after each run.
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_NAMES = ("riscv", "kami", "platform", "traces", "net", "compiler",
               "bedrock2", "logic", "analysis", "fuzz")

#: Deterministic work counters, from `repro.obs.REGISTRY` except
#: `PROBE_COUNTERS`, which the layer wrappers count in traced runs.
COUNTERS = (
    "riscv.instructions", "riscv.fast.blocks_built",
    "riscv.fast.block_runs", "riscv.fast.dcache_misses",
    "kami.rules_fired", "kami.stalls", "kami.instructions_retired",
    "traces.checks", "traces.events_in",
    "end2end.prefix_checks",
    "net.frames_switched", "net.spec_checks",
    "platform.lan9250_dropped_frames",
    "compiler.compiles",
    "vcgen.obligations_proved", "solver.queries", "sat.decisions",
    "cache.hits", "cache.misses", "cache.stores",
    "analysis.obligations_prescreened", "analysis.prescreen_misses",
    "analysis.wcet_functions",
    "fuzz.programs",
)
PROBE_COUNTERS = ("traces.checks", "traces.events_in")

#: ratio -> (numerator, terms of the base)
RATIOS = {
    "kami.ipc": ("kami.instructions_retired", ("kami.rules_fired",)),
    "riscv.fast.block_reuse": ("riscv.fast.block_runs",
                               ("riscv.fast.blocks_built",)),
    "cache.hit_ratio": ("cache.hits", ("cache.hits", "cache.misses")),
    "analysis.prescreen_share": ("analysis.obligations_prescreened",
                                 ("analysis.obligations_prescreened",
                                  "analysis.prescreen_misses")),
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYER_NAMES + ("other",):
        units[layer + ".self_s"] = "s"
    for layer in LAYER_NAMES:
        units[layer + ".calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["end2end.detect_lag_events"] = "events"
    units["traced.wall_s"] = "s"
    units["host.speed"] = "ratio"
    return units


def _load():
    """Import the benchmark's modules, which import the program."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no program sources at %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import layers
    import workloads
    return layers, workloads


# -- host facts -------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """The checkout's commit, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_facts():
    return {"cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": _git_sha()}


# -- one run of one workload ------------------------------------------------


def _median_iqr(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _counter_values(obs, probe):
    snap = obs.REGISTRY.snapshot()
    values = {name: snap.get(name, 0) for name in COUNTERS
              if name not in PROBE_COUNTERS}
    if probe is not None:
        values.update(probe.counts)
    return values


def _setup_seconds(meter):
    """Seconds since process start, scaled to the reference host by the
    speed ``meter`` saw during set-up."""
    return (time.perf_counter() - _T0 - meter.spent) * meter.speed


def _setup_child(workload, seed):
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError("set-up child failed:\n" + out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(workload, seed, seconds, trace=False, trace_dir=None,
            tiny=False, setup_samples=SETUP_SAMPLES):
    """Set up and measure one workload; returns the full record."""
    load_before = os.getloadavg()
    with hostspeed.Meter() as meter:
        layers, workloads = _load()
        from repro import obs
        from repro.obs.tracing import Tracer

        spec = workloads.WORKLOADS[workload]
        items = spec.setup(seed, spec.tiny if tiny else spec.full, WORKDIR)
    setup_own = _setup_seconds(meter)

    probe = export = None
    if trace:
        probe = layers.LayerProbe()
        probe.install()
        if trace_dir:
            export = Tracer()

    n = len(items)
    times = [[] for _ in range(n)]
    raw_times = [[] for _ in range(n)]
    speeds = []
    selfs = [[] for _ in range(n)]
    ref = [None] * n
    attempted = failed = 0
    errors = []
    setup = [setup_own]

    def measure(i, export_spans):
        """Run item ``i`` once and check it; returns its seconds and the
        host's speed while it ran, and in a traced run its per-layer self
        times scaled to the reference host."""
        nonlocal attempted, failed
        item = items[i]
        gc.collect()
        before = _counter_values(obs, probe)
        tracer = None
        if probe is not None:
            tracer = probe.tracer = Tracer()
        with hostspeed.Meter() as meter:
            if tracer is not None:
                tracer.begin(item.label, layers.BENCH_CAT)
            outcome = item.run()
            if tracer is not None:
                tracer.end(item.label, layers.BENCH_CAT)
        after = _counter_values(obs, probe)
        counters = {name: after[name] - before[name] for name in after}
        calls = item_self = None
        if probe is not None:
            item_self, calls = layers.self_times(probe.tracer.events)
            # Spans include the meter's samples; scaled by this share,
            # self times add up to less than the item's time.
            share = (meter.speed * meter.seconds
                     / (meter.seconds + meter.spent))
            item_self = {layer: value * share
                         for layer, value in item_self.items()}
            if export is not None and export_spans:
                export.absorb(probe.tracer.events, t0=probe.tracer.t0)
            probe.tracer = None
        attempted += outcome.attempts
        failed += outcome.wrong
        if outcome.wrong:
            errors.append("%s: %d wrong verdict(s)"
                          % (item.label, outcome.wrong))
        if ref[i] is None:
            ref[i] = (outcome, counters, calls)
        elif (outcome.digest, counters) != (ref[i][0].digest, ref[i][1]):
            errors.append("%s: digest or counters differ between passes"
                          % item.label)
        return meter.seconds, meter.speed, item_self

    # The other set-ups run between items, spread over the measuring
    # time: a shared host has slow spells lasting seconds, and samples taken
    # back to back would all land in the same one.
    setup_at = [seconds * j / setup_samples for j in range(1, setup_samples)]
    paused = 0.0
    k = 0
    start = time.perf_counter()
    try:
        # Warm-up, untimed but checked: the first call into a layer fills
        # lazy caches that later calls find ready.
        measure(0, False)
        while True:
            measured = time.perf_counter() - start - paused
            if setup_at and measured >= setup_at[0]:
                setup_at.pop(0)
                t0 = time.perf_counter()
                setup.append(_setup_child(workload, seed))
                paused += time.perf_counter() - t0
                continue
            if k >= n and measured >= seconds:
                break
            i = k % n
            elapsed, speed, item_self = measure(i, k < n)
            times[i].append(elapsed * speed)
            raw_times[i].append(elapsed)
            speeds.append(speed)
            if item_self is not None:
                selfs[i].append(item_self)
            k += 1
    finally:
        if probe is not None:
            probe.uninstall()
    if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
        os.rmdir(WORKDIR)

    wall = sum(statistics.median(t) for t in times)
    counters = {name: sum(r[1][name] for r in ref) for name in ref[0][1]}
    units = sum(r[0].units for r in ref)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": bool(trace), "tiny": bool(tiny),
        "correct": not errors, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "errors": errors,
        "metrics": {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "setup_samples": setup,
        "items": n, "passes": k / n,
        "item_times": times,
        "raw_wall_s": sum(statistics.median(t) for t in raw_times),
        "raw_item_times": raw_times,
        "host_speed": statistics.median(speeds),
        "units": units, "unit": spec.unit, "throughput": units / wall,
        "digest": workloads.digest([r[0].digest for r in ref]),
        "counters": counters,
        "host": dict(host_facts(), loadavg_before=load_before,
                     loadavg_after=os.getloadavg()),
    }
    if trace:
        record.update(_layer_record(layers, workloads, selfs, ref, counters,
                                    probe.missing))
        if export is not None:
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, "%s.trace.jsonl" % workload)
            export.export_jsonl(path)
            record["trace_file"] = path
    return record


def _layer_record(layers, workloads, selfs, ref, counters, missing):
    """Per-layer self time (sum over items of the median), calls,
    ratios with their bases, and the violation detection lag."""
    layer_self = {}
    for name in LAYER_NAMES + ("other",):
        layer_self[name] = sum(
            statistics.median(sample.get(name, 0.0) for sample in samples)
            for samples in selfs)
    calls = {name: sum((r[2] or {}).get(name, 0) for r in ref)
             for name in LAYER_NAMES}
    ratios = {}
    for name, (numerator, terms) in RATIOS.items():
        base = sum(counters[t] for t in terms)
        ratios[name] = {"value": counters[numerator] / base if base else 0.0,
                        "numerator": counters[numerator], "base": base}
    rejected = [r[0].rejected_trace for r in ref
                if r[0].rejected_trace is not None]
    lag = sum(workloads.detect_lag(t) for t in rejected) if rejected else 0
    return {
        "layers": {name: {"self_s": layer_self[name],
                          "calls": calls.get(name, 0)}
                   for name in layer_self},
        "ratios": ratios,
        "detect_lag_events": lag,
        "missing": missing,
    }


def summary(record):
    """The summary printed as the last line of a run: end-to-end or
    per-layer metrics."""
    if not record["traced"]:
        metrics = {name: {"value": record["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = {}
        for name, row in record["layers"].items():
            values[name + ".self_s"] = row["self_s"]
            if name != "other":
                values[name + ".calls"] = row["calls"]
        values.update(record["counters"])
        values.update({name: row["value"]
                       for name, row in record["ratios"].items()})
        values["end2end.detect_lag_events"] = record["detect_lag_events"]
        values["traced.wall_s"] = record["metrics"]["wall_s"]
        values["host.speed"] = record["host_speed"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record):
    m = record["metrics"]
    print("%s seed=%d: %d item(s), %.2f pass(es)%s"
          % (record["workload"], record["seed"], record["items"],
             record["passes"], ", traced" if record["traced"] else ""))
    print("  %-12s %12.4f s   (one pass: sum of item medians)"
          % ("wall_s", m["wall_s"]))
    print("  %-12s %12.4f s   (as measured, host speed %.3f)"
          % ("raw wall", record["raw_wall_s"], record["host_speed"]))
    print("  %-12s %12.4f s   (median of %d set-ups)"
          % ("setup_s", m["setup_s"], len(record["setup_samples"])))
    print("  %-12s %12.1f MB" % ("peak_rss_mb", m["peak_rss_mb"]))
    print("  %-12s %12.1f %s/s" % ("throughput", record["throughput"],
                                   record["unit"]))
    if record["traced"]:
        for name, row in record["layers"].items():
            if row["self_s"] or row["calls"]:
                print("  %-12s %12.4f s   %d call(s)"
                      % (name, row["self_s"], row["calls"]))
        if record["missing"]:
            print("  missing entry points: %s" % ", ".join(record["missing"]))
    print("  correct: %s (attempted %d, failed %d)"
          % (record["correct"], record["attempted"], record["failed"]))
    for error in record["errors"]:
        print("  error: %s" % error)


# -- the suite ----------------------------------------------------------------


def _child(workload, seed, seconds, trace, trace_dir):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    for line in out.stdout.splitlines():
        if line.startswith('{"record"'):
            return json.loads(line)["record"]
    raise RuntimeError("%s run failed (exit %d):\n%s"
                       % (workload, out.returncode, out.stderr))


def _spread(values):
    q1, med, q3 = _median_iqr(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "samples": values}


def aggregate(runs, traced):
    """One workload's suite entry from its untraced repeats and traced run."""
    errors = [e for r in runs + [traced] for e in r["errors"]]
    digests = {r["digest"] for r in runs + [traced]}
    if len(digests) > 1:
        errors.append("digests differ between repeats")
    counters = runs[0]["counters"]
    if any(r["counters"] != counters for r in runs) or any(
            traced["counters"][name] != value
            for name, value in counters.items()):
        errors.append("counters differ between repeats")
    end_to_end = {name: dict(_spread([r["metrics"][name] for r in runs]),
                             unit=unit)
                  for name, unit in END_TO_END.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wall = end_to_end["wall_s"]["median"]
    return {
        "ok": not errors, "errors": errors,
        "end_to_end": end_to_end,
        "fail_frac": failed / attempted, "attempted": attempted,
        "failed": failed,
        "throughput": {"value": runs[0]["units"] / wall,
                       "unit": "%s/s" % runs[0]["unit"]},
        "digest": runs[0]["digest"],
        "counters": traced["counters"],
        "traced": {
            "wall_s": traced["metrics"]["wall_s"],
            "overhead": traced["metrics"]["wall_s"] / wall - 1,
            "layers": traced["layers"], "ratios": traced["ratios"],
            "detect_lag_events": traced["detect_lag_events"],
            "missing": traced["missing"],
            "trace_file": traced.get("trace_file"),
        },
        "runs": runs + [traced],
    }


def print_aggregate(name, entry):
    print("== %s" % name)
    for metric, row in entry["end_to_end"].items():
        print("  %-18s %12.4f %-3s IQR %.4f  n=%d"
              % (metric, row["median"], row["unit"], row["iqr"], row["n"]))
    print("  %-18s %12.4f     (%d attempted)"
          % ("fail_frac", entry["fail_frac"], entry["attempted"]))
    print("  %-18s %12.1f %s" % ("throughput", entry["throughput"]["value"],
                                 entry["throughput"]["unit"]))
    traced = entry["traced"]
    print("  traced wall %.4f s, tracing overhead %+.1f%%"
          % (traced["wall_s"], 100 * traced["overhead"]))
    for layer, row in traced["layers"].items():
        if row["self_s"] or row["calls"]:
            share = row["self_s"] / traced["wall_s"] if traced["wall_s"] else 0
            print("    %-10s %10.4f s %6.1f%%  %d call(s)"
                  % (layer, row["self_s"], 100 * share, row["calls"]))
    if traced["detect_lag_events"]:
        print("  detect_lag_events  %d" % traced["detect_lag_events"])
    for error in entry["errors"]:
        print("  error: %s" % error)


def _append_history(walls):
    path = os.path.join(ROOT, "benchmarks", "history.py")
    spec = importlib.util.spec_from_file_location("bench_history", path)
    history = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(history)
    return history.append_record("suite", walls)


def run_suite(args, names):
    host = dict(host_facts(), loadavg_before=os.getloadavg())
    runs = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            record = _child(name, args.seed, args.seconds, False, None)
            print("%s repeat %d: wall_s %.4f s, setup_s %.4f s"
                  % (name, repeat, record["metrics"]["wall_s"],
                     record["metrics"]["setup_s"]), flush=True)
            runs[name].append(record)
    result = {"benchmark": "perfbench", "seed": args.seed,
              "repeats": args.repeats, "seconds": args.seconds,
              "host": host, "workloads": {}}
    for name in names:
        traced = _child(name, args.seed, args.seconds, True, args.trace_dir)
        entry = aggregate(runs[name], traced)
        result["workloads"][name] = entry
        print_aggregate(name, entry)
    host["loadavg_after"] = os.getloadavg()
    result["ok"] = all(e["ok"] for e in result["workloads"].values())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print("wrote %s" % args.json)
    if args.append_history:
        print("appended to %s" % _append_history(
            {name: e["end_to_end"]["wall_s"]["median"]
             for name, e in result["workloads"].items()}))
    return 0 if result["ok"] else 1


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: wrap the layers and report "
                             "per-layer metrics")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="write DIR/<workload>.trace.jsonl from each "
                             "traced run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--only", metavar="W,..",
                        help="suite: run only these workloads")
    parser.add_argument("--json", metavar="OUT", help="suite: write results")
    parser.add_argument("--append-history", action="store_true",
                        help="suite: append each workload's wall_s to "
                             "benchmarks/history/suite.jsonl")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = [w["name"] for w in benchmark_spec()["workloads"]]

    if args.setup_only:
        with hostspeed.Meter() as meter:
            _, workloads = _load()
            spec = workloads.WORKLOADS[args.workload]
            spec.setup(args.seed, spec.full, WORKDIR)
        print(json.dumps({"setup_s": _setup_seconds(meter)}))
        return 0
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload:
        if args.workload not in names:
            parser.error("unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(names)))
        record = run_one(args.workload, args.seed, args.seconds,
                         trace=bool(args.trace), trace_dir=args.trace_dir,
                         setup_samples=1 if args.trace else SETUP_SAMPLES)
        print_record(record)
        print(json.dumps({"record": record}))
        print(json.dumps(summary(record)))
        return 0
    if args.only:
        unknown = set(args.only.split(",")) - set(names)
        if unknown:
            parser.error("unknown workload(s): %s" % ", ".join(sorted(unknown)))
        names = [n for n in names if n in args.only.split(",")]
    return run_suite(args, names)


if __name__ == "__main__":
    sys.exit(main())
