"""The observability layer: metrics registry, span tracer, and the
instrumentation wired through the verification stack.

The last test is the integration check the layer exists for: one traced
session covering a solver proof and an adversarial end-to-end run must
produce a parseable Chrome-trace JSONL whose span tree includes both
solver and CPU spans.
"""


import pytest

from repro import obs
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.tracing import NULL_SPAN, Tracer, load_jsonl


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and zeroed."""
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


# ---------------------------------------------------------------- metrics


def test_counter_math():
    c = Counter("c")
    c.inc()
    c.inc(41)
    assert c.value == 42
    c.reset()
    assert c.value == 0


def test_gauge_set_and_add():
    g = Gauge("g")
    g.set(10)
    g.add(-3)
    assert g.value == 7


def test_histogram_moments_and_buckets():
    h = Histogram("h")
    for v in (1, 2, 4, 4, 100):
        h.record(v)
    assert h.count == 5
    assert h.total == 111
    assert h.min == 1
    assert h.max == 100
    assert h.mean == pytest.approx(111 / 5)
    # power-of-two buckets: 1 -> 2^0, 2 -> 2^1, 4 -> 2^2 (twice), 100 -> 2^7
    assert h.buckets[0] == 1
    assert h.buckets[1] == 1
    assert h.buckets[2] == 2
    assert h.buckets[7] == 1


def test_registry_get_or_create_and_type_conflict():
    r = Registry()
    assert r.counter("x") is r.counter("x")
    with pytest.raises(TypeError):
        r.gauge("x")


def test_registry_reset_in_place():
    r = Registry()
    c = r.counter("n")
    c.inc(5)
    r.reset()
    assert c.value == 0
    assert r.counter("n") is c  # references never go stale


def test_registry_snapshot_and_render():
    r = Registry()
    r.counter("sat.decisions").inc(3)
    r.counter("vcgen.obligations_proved")  # zero: skipped by render
    snap = r.snapshot(prefix="sat.")
    assert snap == {"sat.decisions": 3}
    rendered = r.render()
    assert "sat.decisions" in rendered
    assert "vcgen.obligations_proved" not in rendered


# ---------------------------------------------------------------- tracing


def test_span_nesting_reconstructs_tree():
    t = Tracer()
    with t.span("outer", cat="a"):
        with t.span("inner", cat="a"):
            pass
        with t.span("sibling", cat="b"):
            pass
    assert t.depth == 0
    roots = t.span_tree()
    assert len(roots) == 1
    outer = roots[0]
    assert outer["name"] == "outer"
    assert [c["name"] for c in outer["children"]] == ["inner", "sibling"]
    assert t.categories() == {"a", "b"}


def test_span_args_attach_to_end_event():
    t = Tracer()
    with t.span("s") as sp:
        sp.set("tier", "sat")
    end = [e for e in t.events if e["ph"] == "E"][0]
    assert end["args"]["tier"] == "sat"


def test_disabled_mode_is_noop():
    assert not obs.enabled()
    assert obs.tracer() is None
    # Spans degrade to the shared null singleton: no allocation, no events.
    sp = obs.span("anything", cat="solver")
    assert sp is NULL_SPAN
    with sp as inner:
        inner.set("ignored", 1)  # must not raise
    obs.instant("nothing")  # must not raise
    assert obs.export_trace("/tmp/never-written.jsonl") == 0
    # Counters still count when disabled -- they are the cheap always-on tier.
    c = obs.counter("t.always_on")
    c.inc()
    assert c.value == 1


def test_enable_disable_cycle():
    obs.enable(trace=True)
    assert obs.enabled()
    with obs.span("live") as sp:
        assert sp is not NULL_SPAN
    assert len(obs.tracer().events) == 2
    obs.disable()
    assert obs.span("dead") is NULL_SPAN


def test_timed_decorator():
    @obs.timed("t.work")
    def work(x):
        return x + 1

    assert work(1) == 2  # disabled: plain call
    obs.enable(trace=True)
    assert work(2) == 3
    h = obs.histogram("t.work.seconds")
    assert h.count == 1
    assert any(e["name"] == "t.work" for e in obs.tracer().events)


# ---------------------------------------------- stack-wide integration


def test_full_stack_trace_includes_solver_and_cpu_spans(tmp_path):
    from repro.core.end2end import run_adversarial
    from repro.logic import terms as T
    from repro.logic.solver import check_valid, tier_counts

    obs.enable(trace=True)
    # A solver query (exercises at least one portfolio tier)...
    x = T.var("x", 8)
    assert check_valid(T.eq(T.add(x, T.const(0, 8)), x)).valid
    # ...and a short adversarial end-to-end run on the ISA machine.
    result = run_adversarial(seed=1, n_frames=2, max_units=60_000)
    assert result.ok, result.detail

    out = tmp_path / "trace.jsonl"
    n_events = obs.export_trace(str(out))
    assert n_events > 0

    # Every line is valid Chrome-trace JSON with the required fields.
    events = load_jsonl(str(out))
    assert len(events) == n_events
    for ev in events:
        assert {"ph", "ts", "name"} <= set(ev)

    # The span tree covers both the solver and the CPU layers (and more).
    cats = {ev.get("cat") for ev in events}
    assert "solver" in cats
    assert "riscv" in cats
    assert len(cats & {"solver", "vcgen", "compiler", "riscv",
                       "end2end", "platform", "kami"}) >= 4

    tree_names = set()

    def walk(nodes):
        for node in nodes:
            tree_names.add(node["name"])
            walk(node["children"])

    walk(obs.tracer().span_tree())
    assert "solver.check_valid" in tree_names
    assert "riscv.run" in tree_names
    assert "end2end.run" in tree_names

    # Tier attribution lives in the registry (the deprecated STATS
    # read-through alias is gone -- see test_solver_stats_alias_removed).
    stats = tier_counts()
    assert sum(stats.values()) >= 1
    assert stats.keys() == {"structural", "witness", "interval", "sat"}

    # Key counters the CLI surfaces are non-zero.
    assert obs.counter("riscv.instructions").value == 60_000
    assert obs.counter("platform.bus_reads").value > 0
    assert obs.counter("end2end.prefix_checks").value > 0


def test_solver_stats_alias_removed():
    """The deprecated ``solver.STATS`` read-through (and its
    ``reset_stats``) are gone; `tier_counts` is the supported read."""
    from repro.logic import solver

    assert not hasattr(solver, "STATS")
    assert not hasattr(solver, "_TierStatsView")
    assert not hasattr(solver, "reset_stats")
    assert set(solver.tier_counts()) == {"structural", "witness",
                                          "interval", "sat"}
