"""The parallel dispatcher (`repro.logic.dispatch.parallel_call`).

The hard requirements: ``--jobs N`` must be *observationally identical*
to ``--jobs 1`` (bit-identical reports, counterexamples, proof-cache
contents, and the same exception when a task fails); one timed-out
obligation must never abort the rest of a verification run -- it is
surfaced as a per-obligation ``timeout`` status instead; and a worker
that dies must fail the call rather than hang it.
"""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.bedrock2.vcgen import VerificationError
from repro.logic import solver as S
from repro.logic import terms as T
from repro.logic.cache import ProofCache
from repro.logic.dispatch import DispatchError, parallel_call
from repro.sw.verify import verify_all, verify_doorlock

X = T.var("x")
Y = T.var("y")

# x*x == 7 is unsatisfiable mod 2^32 (7 is not a square mod 8), but the
# SAT tier needs to search the multiplier circuit to see it -- with a
# one-conflict budget the query reliably times out.
HARD_UNSAT_GOAL = T.ne(T.mul(X, X), T.const(7))


def test_solver_prove_distinguishes_timeout_from_refutation():
    with pytest.raises(S.SolverTimeout):
        S.prove(HARD_UNSAT_GOAL, max_conflicts=1)
    with pytest.raises(S.ProofFailure):
        S.prove(T.eq(Y, T.const(0)))


def test_vc_prove_records_timeout_in_report():
    from repro.bedrock2.builder import func, set_, var
    from repro.bedrock2.extspec import MMIOSpec
    from repro.bedrock2.vcgen import FunctionSpec, verify_function

    prog = {"f": func("f", ("x",), ("r",), set_("r", var("x")))}

    def post(args, rets):
        return {"easy": T.eq(rets[0], args[0]), "hard": HARD_UNSAT_GOAL}

    report = verify_function(prog, "f", {"f": FunctionSpec(post=post)},
                             MMIOSpec([]), max_conflicts=1)
    assert report.timeouts == ("f/post-hard",)
    assert not report.ok
    assert report.obligations == 1  # the easy one still went through
    assert "TIMED OUT" in str(report)


def test_jobs4_reports_bit_identical_to_jobs1():
    sequential = verify_all(jobs=1)
    parallel = verify_all(jobs=4)
    assert sequential.reports == parallel.reports
    assert str(sequential) == str(parallel)


def test_jobs_parallel_doorlock_and_counter_merge():
    queries = obs.counter("solver.queries")
    before = queries.value
    run = verify_doorlock(jobs=2)
    assert [r.function for r in run.reports] == \
        ["doorlock_init", "doorlock_loop"]
    # Worker solver activity was merged back into the parent registry.
    assert queries.value > before


def test_parallel_and_sequential_produce_identical_cache_files(tmp_path):
    d1 = str(tmp_path / "seq")
    d2 = str(tmp_path / "par")
    with ProofCache(d1) as cache:
        verify_all(jobs=1, cache=cache)
    with ProofCache(d2) as cache:
        verify_all(jobs=3, cache=cache)
    seq = sorted(open(d1 + "/proofs.jsonl").read().splitlines())
    par = sorted(open(d2 + "/proofs.jsonl").read().splitlines())
    assert seq == par


def test_verify_cache_files_identical_at_any_jobs(tmp_path):
    # `repro verify`'s shape: both apps into one cache. At jobs=1 most
    # cache hits of a cold run are entries another function stored (the
    # door lock reuses lightbulb's), while a worker at jobs=3 decides
    # them itself on its function's incremental solver. The models it
    # stores must not depend on which of the two happened.
    lines = {}
    for jobs in (1, 3):
        d = str(tmp_path / ("j%d" % jobs))
        with ProofCache(d) as cache:
            verify_all(jobs=jobs, cache=cache)
            verify_doorlock(jobs=jobs, cache=cache)
        lines[jobs] = sorted(open(d + "/proofs.jsonl").read().splitlines())
    assert lines[1] == lines[3]


def test_parallel_workers_start_warm_from_parent_cache(tmp_path):
    from repro.logic.cache import HITS

    d = str(tmp_path / "cache")
    with ProofCache(d) as cache:
        verify_all(jobs=1, cache=cache)
    hits_before = HITS.value
    with ProofCache(d) as cache:
        verify_all(jobs=3, cache=cache)
        # Every worker query was served from the seeded entries (hit
        # counts are merged back); nothing new came back to absorb.
        assert cache.fresh_entries() == []
    assert HITS.value - hits_before > 0


def test_parallel_call_round_trips_results():
    results = parallel_call("repro.core.end2end:expected_bulb_history",
                            [{"accepted_frames": []},
                             {"accepted_frames": []}], jobs=2)
    assert results == [[], []]


def test_counterexample_identical_across_process_boundary():
    """The buggy-drain countermodel is the paper's falsifiable negative
    control; it must come out bit-identical whether the verification ran
    in-process or in worker processes."""
    from repro.sw.verify import verify_drain_buggy_fails

    local = verify_drain_buggy_fails()
    remote = parallel_call("repro.sw.verify:verify_drain_buggy_fails",
                           [{}, {}], jobs=2)
    for err in remote:
        assert err.model == local.model
        assert err.context == local.context


# Dispatched tasks for the error tests below. Under fork, a worker
# resolves ``<this module>:<name>`` from the module the parent imported.

def _time_out(fail: bool) -> int:
    if fail:
        S.prove(HARD_UNSAT_GOAL, max_conflicts=1)
    return 0


def _refute_buggy_drain(fail: bool) -> int:
    from repro.sw.verify import verify_drain_buggy_fails

    if fail:
        raise verify_drain_buggy_fails()
    return 0


def _refute(fail: bool) -> int:
    if fail:
        S.prove(T.eq(Y, T.const(0)))
    return 0


def _die(fail: bool) -> int:
    if fail:
        os.kill(os.getpid(), signal.SIGKILL)
    return 0


@pytest.mark.parametrize("task", ["_time_out", "_refute_buggy_drain"])
def test_task_errors_are_the_same_at_any_jobs(task):
    """A failing task raises its own exception, with the same fields,
    whether it ran in process or in a worker."""
    kwargs_list = [{"fail": False}, {"fail": True}, {"fail": True}]
    errors = []
    for jobs in (1, 2):
        with pytest.raises(Exception) as info:
            parallel_call("%s:%s" % (__name__, task), kwargs_list, jobs=jobs)
        errors.append(info.value)
    local, remote = errors
    assert type(local) is type(remote)
    assert type(local) in (S.SolverTimeout, VerificationError)
    assert (local.args, vars(local)) == (remote.args, vars(remote))


def test_unpicklable_task_error_arrives_as_dispatch_error():
    """`ProofFailure` cannot be rebuilt from its pickled message, so the
    worker ships a `DispatchError` naming it instead."""
    kwargs_list = [{"fail": False}, {"fail": True}]
    with pytest.raises(S.ProofFailure) as local:
        parallel_call("%s:_refute" % __name__, kwargs_list, jobs=1)
    with pytest.raises(DispatchError) as remote:
        parallel_call("%s:_refute" % __name__, kwargs_list, jobs=2)
    assert remote.value.kind == "ProofFailure"
    assert remote.value.context == "%s:_refute" % __name__
    assert remote.value.detail == str(local.value)


def test_dead_worker_raises_instead_of_hanging():
    def hung(signum, frame):
        raise TimeoutError("parallel_call still waiting on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(BrokenProcessPool):
            parallel_call("%s:_die" % __name__,
                          [{"fail": False}, {"fail": True}], jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_histograms_survive_the_process_boundary():
    """Regression: the pool used to ship only Counter values back, so
    worker-side histogram observations (e.g. per-obligation wall times)
    silently vanished under --jobs N. The observation *count* must match
    the sequential run exactly."""
    hist = obs.histogram("vcgen.obligation_seconds")
    obs.REGISTRY.reset()
    verify_doorlock(jobs=1)
    sequential = hist.count
    assert sequential > 0
    obs.REGISTRY.reset()
    verify_doorlock(jobs=4)
    assert hist.count == sequential
    assert hist.min is not None and hist.max is not None


def test_worker_spans_are_aggregated_into_parent_trace():
    """Worker-local spans come back through the pool and land in the
    parent tracer rebased to its clock, re-stamped with the worker pid."""
    import os

    obs.enable(trace=True)
    try:
        verify_doorlock(jobs=2)
        tr = obs.tracer()
        pids = {e["pid"] for e in tr.events}
        assert os.getpid() in pids          # parent dispatch spans
        assert pids - {os.getpid()}         # plus real worker pids
        worker_events = [e for e in tr.events
                         if e["pid"] != os.getpid()]
        assert any(e["ph"] == "B" and e["cat"] == "solver"
                   for e in worker_events)
        # Rebasing kept every worker timestamp inside the parent window.
        parent_ts = [e["ts"] for e in tr.events
                     if e["pid"] == os.getpid()]
        for event in worker_events:
            assert 0.0 <= event["ts"] <= max(parent_ts) + 1e6
    finally:
        obs.disable()
        obs.REGISTRY.reset()
