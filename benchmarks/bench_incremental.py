"""Incremental and parallel re-verification (docs/incremental.md).

The paper's Coq development re-checks every proof on every build; our
program logic is modular, so the proof cache + dispatcher turn the
"edit one driver function, re-verify the world" loop into (a) a warm
cache run that skips the solver for every unchanged VC and (b) a
multi-core run for the cold case. This benchmark measures all three
modes on the full lightbulb + doorlock workload:

* ``cold``     -- empty cache, sequential (the seed repo's baseline)
* ``warm``     -- second run against the populated cache
* ``parallel`` -- cold again but with one worker per core

The cold and warm wall times are gated by perfbench's ``prove`` workload,
which runs one cold and one warm round through an on-disk cache.
"""

from repro import obs
from repro.logic.cache import ProofCache
from repro.sw.verify import verify_all, verify_doorlock


def _workload(jobs=1, cache=None):
    run = verify_all(jobs=jobs, cache=cache)
    doorlock = verify_doorlock(jobs=jobs, cache=cache)
    return run, doorlock


def test_warm_cache_skips_the_solver(benchmark, tmp_path):
    """A warm re-verification must serve >=90% of solver queries from the
    proof cache (the incremental headline; see docs/incremental.md)."""
    d = str(tmp_path / "cache")
    with ProofCache(d) as cache:
        cold_run, _ = _workload(cache=cache)

    queries = obs.counter("solver.queries")
    hits = obs.counter("cache.hits")
    q0, h0 = queries.value, hits.value

    def warm():
        with ProofCache(d) as cache:
            return _workload(cache=cache)

    warm_run, warm_doorlock = benchmark.pedantic(warm, rounds=1, iterations=1)
    warm_queries = queries.value - q0
    warm_hits = hits.value - h0
    print()
    print("warm re-verification: %d/%d solver queries served from cache"
          % (warm_hits, warm_queries))
    assert warm_run.reports == cold_run.reports
    assert warm_run.ok and warm_doorlock.ok
    assert warm_hits >= 0.9 * warm_queries


def test_parallel_dispatch_matches_sequential(benchmark):
    """--jobs N is observationally identical to --jobs 1 (and faster on a
    multi-core runner; on a single core the fork overhead dominates)."""
    from repro.logic.dispatch import default_jobs

    sequential_run, sequential_door = _workload(jobs=1)
    run, doorlock = benchmark.pedantic(
        lambda: _workload(jobs=default_jobs()), rounds=1, iterations=1)
    print()
    print("parallel verification across %d workers" % default_jobs())
    assert run.reports == sequential_run.reports
    assert doorlock.reports == sequential_door.reports
