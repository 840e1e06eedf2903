"""Self-test of the benchmark: every workload at a tiny size, through the
same code path as a benchmark run, traced.

    pytest perfbench/test_suite.py
"""

import copy
import signal
import time

import pytest

import compare
import hostspeed
import layers
import run
import workloads
from repro.sw.specs import good_hl_trace

SPEC = run.benchmark_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def records():
    return {name: run.run_one(name, seed=0, seconds=0, trace=True, tiny=True,
                              setup_samples=1)
            for name in NAMES}


def test_benchmark_json_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_every_entry_point_resolves():
    probe = layers.LayerProbe()
    try:
        assert probe.install() == []
    finally:
        probe.uninstall()


@pytest.mark.parametrize("name", NAMES)
def test_record_and_summary_schema(records, name):
    record = records[name]
    assert record["correct"], record["errors"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert record["passes"] == 1.0
    assert set(record["counters"]) == set(run.COUNTERS)
    assert record["host"]["nproc"] >= 1
    for traced in (False, True):
        untraced = dict(copy.deepcopy(record), traced=traced)
        line = run.summary(untraced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = run.per_layer_units() if traced else run.END_TO_END
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_self_time_fits_in_traced_wall(records, name):
    record = records[name]
    total = sum(row["self_s"] for row in record["layers"].values())
    assert 0 < total <= record["metrics"]["wall_s"]
    assert record["layers"]["other"]["self_s"] >= 0


def test_layers_show_where_the_workload_runs(records):
    def share(name, layer):
        return (records[name]["layers"][layer]["self_s"]
                / records[name]["metrics"]["wall_s"])
    assert share("theorem_isa", "traces") > 0.5
    assert records["theorem_p4mm"]["layers"]["kami"]["calls"] > 0
    assert records["fuzz_diff"]["layers"]["traces"]["calls"] == 0
    assert records["prove"]["layers"]["traces"]["calls"] == 0
    assert records["prove"]["counters"]["cache.hits"] > 0


def test_violation_bisection_finds_the_bad_event(records):
    spec = workloads.WORKLOADS["theorem_violation"]
    item = spec.setup(0, spec.tiny, run.WORKDIR)[0]
    trace = item.run().rejected_trace
    bad = workloads.first_bad_index(trace)
    hl = good_hl_trace()
    assert hl.prefix_of(trace[:bad - 1])
    assert not hl.prefix_of(trace[:bad])
    assert records["theorem_violation"]["detect_lag_events"] \
        == len(trace) - bad


def test_meter_takes_its_samples_out_of_the_time():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter() as meter:
        time.sleep(0.35)
    assert len(meter.samples) >= 4
    assert meter.spent > 0
    assert meter.seconds == pytest.approx(0.35, abs=0.03)
    assert meter.speed > 0
    assert signal.getsignal(signal.SIGALRM) is previous


def test_self_times_subtract_nested_spans():
    def ev(ph, cat, ts):
        return {"ph": ph, "cat": cat, "ts": ts, "name": cat}
    events = [ev("B", "bench", 0), ev("B", "riscv", 10),
              ev("B", "platform", 20), ev("E", "platform", 50),
              ev("E", "riscv", 100), ev("B", "traces", 100),
              ev("E", "traces", 400), ev("E", "bench", 500)]
    selfs, calls = layers.self_times(events)
    assert selfs == pytest.approx({"other": 110e-6, "riscv": 60e-6,
                                   "platform": 30e-6, "traces": 300e-6})
    assert calls == {"riscv": 1, "platform": 1, "traces": 1}


def _suite_entry(wall_samples, counters=None):
    samples = list(wall_samples)
    q1, med, q3 = run._median_iqr(samples)
    row = {"median": med, "iqr": q3 - q1, "samples": samples}
    fixed = {"median": 1.0, "iqr": 0.0, "samples": [1.0]}
    return {"end_to_end": {"wall_s": row, "setup_s": fixed,
                           "peak_rss_mb": fixed},
            "fail_frac": 0.0, "digest": "d",
            "counters": counters or {"riscv.instructions": 5},
            "traced": {"detect_lag_events": 0}}


def _statuses(a, b):
    spec = {"workloads": [{"name": "w"}], "end_to_end": SPEC["end_to_end"]}
    rows = compare.compare({"workloads": {"w": a}}, {"workloads": {"w": b}},
                           spec)
    return {row[1]: row[-1] for row in rows}


def test_compare_applies_the_bounds():
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "wall_s")

    def walls(scale, spread=0.01):
        return _suite_entry([scale * (1 - spread), scale, scale * (1 + spread)])

    base = walls(10.0)
    assert _statuses(base, walls(10.0 * (1 + bound / 2)))["wall_s"] == "ok"
    assert _statuses(base, walls(10.0 * (1 + 2 * bound)))["wall_s"] \
        == "regression"
    assert _statuses(base, walls(10.0 * (1 - 2 * bound)))["wall_s"] \
        == "improved"
    assert _statuses(base, walls(10.0, spread=bound))["wall_s"] \
        == "unresolved"
    changed = _statuses(base, _suite_entry([10.0, 10.1, 9.9],
                                           {"riscv.instructions": 6}))
    assert changed["riscv.instructions"] == "changed"
