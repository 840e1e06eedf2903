"""Fuzzing throughput: generator programs/sec and oracle campaign time.

Measures (a) raw program-generation throughput -- the generator must
stay cheap so fuzzing time is spent in the execution layers, not in
building ASTs -- and (b) the wall time of a small differential campaign
(every layer, default profile), which is what the CI smoke-fuzz step and
`python -m repro fuzz` actually pay per seed. Campaign wall time is
gated by perfbench's ``fuzz_diff`` workload.
"""

from repro.fuzz.generator import GenConfig, generate_program
from repro.fuzz.oracle import run_campaign

_GEN_PROGRAMS = 200
_CAMPAIGN_SEEDS = 12


def _generate_workload(n=_GEN_PROGRAMS):
    config = GenConfig()
    return [generate_program(seed, config) for seed in range(n)]


def _campaign_workload(seeds=_CAMPAIGN_SEEDS):
    return run_campaign(list(range(seeds)), config=GenConfig(),
                        logic_sample=2)


def test_generator_throughput(benchmark):
    """Generating programs is orders of magnitude cheaper than running
    them; the generator never becomes the campaign bottleneck."""
    programs = benchmark(_generate_workload)
    assert len(programs) == _GEN_PROGRAMS


def test_differential_campaign(benchmark):
    """A full five-layer campaign over a dozen seeds, with a sampled
    logic cross-check -- the per-seed cost the CI smoke step pays."""
    report = benchmark.pedantic(_campaign_workload, rounds=1, iterations=1)
    assert report["summary"]["divergences"] == 0
    assert report["summary"]["invalid"] == 0
