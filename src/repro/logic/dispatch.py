"""Parallel fan-out of independent work: `parallel_call`.

The program logic is modular: `repro.bedrock2.vcgen` emits obligations
per function and "re-verifying one function never revisits the others",
so whole-function verification tasks -- like fuzz seeds, end-to-end
seeds and fleet shards -- are embarrassingly parallel. `parallel_call`
runs them, ``jobs`` at a time, on a process pool (``--jobs N`` on the
CLI) and merges the results back **deterministically**: outputs are
consumed in task-submission order regardless of which worker finished
first, so ``--jobs 4`` produces bit-identical reports, counterexamples,
and proof-cache files to ``--jobs 1``. At ``jobs <= 1`` (or for a single
task) the same function runs in this process instead.

What crosses the process boundary is kept picklable by construction:

* **payloads**: a ``module:function`` path plus one kwargs dict per
  task (terms pickle through the interning constructor, see
  `terms.Term.__reduce__`);
* **results**: per task, the function's result or the exception it
  raised, plus counter deltas, fresh proof-cache entries, wall seconds
  and observability extras. The extras dict ships the worker's
  histogram deltas, trace events (rebased onto the parent clock and
  re-stamped with the worker pid), and verification-ledger records back
  to the parent, merged in task-submission order so ``--jobs N``
  aggregation is deterministic.

Failures are re-raised in the parent, earliest submitted task first, as
the exception the task raised -- the same one a ``jobs=1`` run raises.
An exception that does not survive pickling becomes a `DispatchError`
naming it. A worker that dies (killed by a signal, say) breaks the pool:
the parent raises `concurrent.futures.process.BrokenProcessPool` instead
of waiting for a result that never comes.

Each task runs with a private proof cache seeded from the parent's
entries, so worker behavior depends only on the submitted payload --
never on scheduling -- and new entries flow back for the parent to
persist.

Observability: ``dispatch.tasks``, ``dispatch.batches``,
``dispatch.task_seconds`` (histogram), and per-task
``dispatch.task`` spans in the parent trace.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import solver as S
from .. import obs
from .cache import ProofCache

_TASKS = obs.counter("dispatch.tasks")
_BATCHES = obs.counter("dispatch.batches")
_TASK_SECONDS = obs.histogram("dispatch.task_seconds")


def default_jobs() -> int:
    """The pool size ``--jobs 0`` resolves to: one worker per core."""
    return os.cpu_count() or 1


class DispatchError(Exception):
    """A dispatched task raised an exception that cannot cross the
    process boundary; carries its type name, the task's function path,
    and its message."""

    def __init__(self, kind: str, context: str, detail: str):
        self.kind = kind
        self.context = context
        self.detail = detail
        super().__init__("%s in %s: %s" % (kind, context, detail))

    def __reduce__(self):
        return (DispatchError, (self.kind, self.context, self.detail))


def _resolve(func_path: str) -> Callable:
    module_name, _, attr = func_path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


# ---------------------------------------------------------------------------
# Worker side. Everything here must be importable at module top level so
# the pool works under both fork and spawn start methods.

_SEED_ENTRIES: List[tuple] = []
_USE_CACHE = False


def _pool_init(seed_entries: List[tuple], use_cache: bool,
               enable_obs: bool = False, trace: bool = False,
               ledger: bool = False) -> None:
    global _SEED_ENTRIES, _USE_CACHE
    _SEED_ENTRIES = seed_entries
    _USE_CACHE = use_cache
    # Mirror the parent's observability mode. Under fork the worker
    # inherits the parent's tracer (with the parent's pid and events),
    # so a fresh one must be started either way.
    if enable_obs:
        obs.enable(trace=trace)
    else:
        obs.disable()
    if ledger:
        obs.enable_ledger()
    else:
        obs.disable_ledger()


def _counter_values() -> Dict[str, int]:
    snapshot: Dict[str, int] = {}
    for name, metric in obs.REGISTRY._metrics.items():
        if isinstance(metric, obs.Counter):
            snapshot[name] = metric.value
    return snapshot


def _counter_delta(before: Dict[str, int]) -> Dict[str, int]:
    delta: Dict[str, int] = {}
    for name, value in _counter_values().items():
        change = value - before.get(name, 0)
        if change:
            delta[name] = change
    return delta


def _histogram_values() -> Dict[str, tuple]:
    snapshot: Dict[str, tuple] = {}
    for name, metric in obs.REGISTRY._metrics.items():
        if isinstance(metric, obs.Histogram):
            snapshot[name] = (metric.count, metric.total,
                              dict(metric.buckets))
    return snapshot


def _histogram_delta(before: Dict[str, tuple]) -> Dict[str, tuple]:
    """Per-histogram ``(count, total, min, max, buckets)`` deltas since
    the snapshot. min/max are the worker's current extremes -- real
    observed samples, so the parent-side merge stays exact (re-merging
    an extreme the parent already holds is idempotent)."""
    delta: Dict[str, tuple] = {}
    for name, metric in obs.REGISTRY._metrics.items():
        if not isinstance(metric, obs.Histogram):
            continue
        count0, total0, buckets0 = before.get(name, (0, 0.0, {}))
        dcount = metric.count - count0
        if dcount <= 0:
            continue
        dbuckets = {}
        for exponent, n in metric.buckets.items():
            dn = n - buckets0.get(exponent, 0)
            if dn:
                dbuckets[exponent] = dn
        delta[name] = (dcount, metric.total - total0,
                       metric.min, metric.max, dbuckets)
    return delta


def _portable(err: Exception, func_path: str) -> Exception:
    """``err`` itself if it survives a pickle round trip, else a
    `DispatchError` describing it."""
    import pickle

    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return DispatchError(type(err).__name__, func_path, str(err))
    return err


def _worker_call(task: Tuple[str, dict]) -> tuple:
    """Run one task in a pool worker and return ``(result, error,
    counter deltas, fresh cache entries, wall seconds, extras)``.

    The task sees a private cache seeded from the parent's entries, so
    its result depends only on the payload, not on which worker ran
    which earlier task."""
    func_path, kwargs = task
    t0 = time.perf_counter()
    counters_before = _counter_values()
    hist_before = _histogram_values()
    tr = obs.tracer()
    trace_mark = len(tr.events) if tr is not None else 0
    led = obs.ledger()
    ledger_mark = led.mark() if led is not None else 0
    cache = ProofCache.from_entries(_SEED_ENTRIES) if _USE_CACHE else None
    result = error = None
    with S.cached(cache):
        try:
            result = _resolve(func_path)(**kwargs)
        except Exception as err:  # re-raised in the parent
            error = _portable(err, func_path)
    fresh = cache.fresh_entries() if cache is not None else []
    extras: Dict = {"pid": os.getpid()}
    hist = _histogram_delta(hist_before)
    if hist:
        extras["hist"] = hist
    if tr is not None and len(tr.events) > trace_mark:
        extras["events"] = tr.events[trace_mark:]
        extras["trace_t0"] = tr.t0
    if led is not None:
        records = led.since(ledger_mark)
        if records:
            extras["ledger"] = records
    return (result, error, _counter_delta(counters_before), fresh,
            time.perf_counter() - t0, extras)


# ---------------------------------------------------------------------------
# Parent side


def _merge_counters(delta: Dict[str, int]) -> None:
    # ``cache.stores`` is recounted by the parent when it absorbs the
    # worker's fresh entries; merging the worker's own count would double
    # every store.
    for name, value in delta.items():
        if name != "cache.stores":
            obs.counter(name).inc(value)


def _merge_extras(extras: Dict) -> None:
    """Fold one worker task's observability extras into this process:
    histogram deltas into the registry, trace events into the parent
    tracer (rebased + pid-stamped), ledger records into the parent
    ledger. Called in task-submission order, so the merged state is
    independent of worker scheduling."""
    pid = extras.get("pid")
    for name, delta in extras.get("hist", {}).items():
        obs.histogram(name).merge(*delta)
    tr = obs.tracer()
    events = extras.get("events")
    if tr is not None and events:
        tr.absorb(events, t0=extras.get("trace_t0"), pid=pid)
    led = obs.ledger()
    records = extras.get("ledger")
    if led is not None and records:
        led.absorb(records, pid=pid)


def parallel_call(func_path: str, kwargs_list: Sequence[dict],
                  jobs: Optional[int] = None,
                  cache: Optional[ProofCache] = None) -> List[Any]:
    """Call ``module:function`` once per kwargs dict, ``jobs`` at a time
    (``0``/``None`` = one worker per core), and return the (picklable)
    results in input order.

    ``cache``, when given, is the proof cache the calls consult:
    installed around them in this process, or seeded into each worker and
    refilled from the entries the workers decide. A failing task raises
    the same exception either way; in the pool, every task runs to
    completion first and the earliest submitted failure wins.
    """
    jobs = jobs or default_jobs()
    if jobs <= 1 or len(kwargs_list) <= 1:
        fn = _resolve(func_path)
        with S.cached(S.get_cache() if cache is None else cache):
            return [fn(**kwargs) for kwargs in kwargs_list]
    # The pool's modules load only when a pool runs: an in-process call
    # costs nothing beyond the call itself.
    from concurrent.futures import ProcessPoolExecutor

    _BATCHES.inc()
    seed = cache.seed_entries() if cache is not None else []
    executor = ProcessPoolExecutor(
        max_workers=min(jobs, len(kwargs_list)),
        initializer=_pool_init,
        initargs=(seed, cache is not None, obs.ENABLED,
                  obs.tracer() is not None, obs.ledger() is not None))
    with executor, obs.span("dispatch.batch", cat="dispatch",
                            args={"label": func_path, "jobs": jobs,
                                  "tasks": len(kwargs_list)}):
        outcomes = list(executor.map(
            _worker_call, [(func_path, kwargs) for kwargs in kwargs_list]))
    results = []
    failure = None
    for result, error, counters, fresh, wall, extras in outcomes:
        _TASKS.inc()
        _TASK_SECONDS.record(wall)
        obs.instant("dispatch.task", cat="dispatch",
                    args={"label": func_path, "seconds": wall})
        _merge_counters(counters)
        _merge_extras(extras)
        if cache is not None and fresh:
            cache.absorb(fresh)
        if failure is None:
            failure = error
        results.append(result)
    if failure is not None:
        raise failure
    return results
