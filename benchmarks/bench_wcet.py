"""Static WCET/stack analysis cost and bound tightness.

Measures (a) the wall time of proving WCET + stack bounds for both
shipped apps -- the full ``lint --binary --timing`` workload of CFG
recovery, abstract interpretation, loop-bound inference, and the
interprocedural cycle/stack fixpoint -- and (b) the wall time of the
oracle's wcet soundness layer over a fixed fuzz-seed sample, alongside
the deterministic mean tightness (static bound / measured pipeline
cycles), pinned exactly so that any change in it is an explicit test
edit. The cost of the analysis is gated by perfbench's ``fuzz_diff``
workload, which runs the wcet layer on every program.
"""

import os

from repro.analysis.binlint import BinaryLintConfig
from repro.analysis.costmodel import pipeline_cost_model
from repro.analysis.wcet import analyze_timing, check_budgets, \
    load_budgets, TimingConfig
from repro.compiler import compile_program
from repro.platform.bus import MMIO_RANGES
from repro.sw.doorlock import doorlock_program
from repro.sw.program import compiled_lightbulb

_STACK_TOP = 1 << 16
_TIGHTNESS_SEEDS = 6
_BUDGETS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "timing-budgets.json")


def _shipped_workload():
    """Prove both shipped apps; returns (findings, budget findings)."""
    loop_bounds, app_budgets = load_budgets(_BUDGETS)
    findings, over = [], []
    for name, compiled in (
            ("lightbulb", compiled_lightbulb(stack_top=_STACK_TOP)),
            ("doorlock", compile_program(doorlock_program(), entry="main",
                                         stack_top=_STACK_TOP))):
        config = TimingConfig(
            lint=BinaryLintConfig.for_platform(compiled.stack_top,
                                               MMIO_RANGES),
            model=pipeline_cost_model(strict=False),
            loop_bounds=loop_bounds)
        report = analyze_timing(compiled, config)
        findings += report.findings
        over += check_budgets(report, app_budgets.get(name, {}))
    return findings, over


def _tightness_workload(seeds=range(_TIGHTNESS_SEEDS)):
    """Differential runs with the wcet layer; returns tightness ratios."""
    from repro.fuzz.generator import generate_program
    from repro.fuzz.oracle import run_differential

    ratios = []
    for seed in seeds:
        result = run_differential(generate_program(seed))
        wcet = result.get("wcet") or {}
        if result["status"] != "ok" or not wcet.get("measured_cycles"):
            return []  # unsound / diverged: fail loudly in the asserts
        ratios.append(wcet["static_cycles"] / wcet["measured_cycles"])
    return ratios


def test_wcet_shipped_programs(benchmark):
    """Proving WCET + stack bounds for the whole software stack is a
    sub-second operation, finds nothing, and stays inside budgets."""
    findings, over = benchmark(_shipped_workload)
    assert findings == []
    assert over == []


def test_wcet_fuzz_tightness(benchmark):
    """The wcet soundness layer over a fixed seed sample: every bound
    holds dynamically and the mean overestimate stays under 3x. The
    sample is fixed and the analysis deterministic, so the mean is pinned
    exactly: a tighter or looser analysis must update it here."""
    ratios = benchmark.pedantic(_tightness_workload, rounds=1, iterations=1)
    assert len(ratios) == _TIGHTNESS_SEEDS
    assert all(r >= 1.0 for r in ratios)
    assert sum(ratios) / len(ratios) <= 3.0
    assert round(sum(ratios) / len(ratios), 3) == 1.160
