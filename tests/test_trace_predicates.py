"""Unit and property tests for the trace-predicate combinators."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.online import OnlineChecker
from repro.traces.predicates import (
    Bind, Concat, Epsilon, Exists, Guard, Never, RepeatN, Star, Step, Union,
    capture, event, ld, seq, st as st_, union, value_is, value_where,
)


def LD(addr, val=0):
    return ("ld", addr, val)


def ST(addr, val=0):
    return ("st", addr, val)


def any_ld(addr):
    return ld(addr)


def test_epsilon():
    assert Epsilon().matches([])
    assert not Epsilon().matches([LD(0)])
    assert Epsilon().prefix_of([])
    assert not Epsilon().prefix_of([LD(0)])


def test_never():
    assert not Never().matches([])
    assert not Never().prefix_of([])


def test_single_event():
    p = ld(0x100, value_is(7))
    assert p.matches([LD(0x100, 7)])
    assert not p.matches([LD(0x100, 8)])
    assert not p.matches([ST(0x100, 7)])
    assert not p.matches([])
    assert not p.matches([LD(0x100, 7), LD(0x100, 7)])


def test_prefix_of_single():
    p = ld(0x100, value_is(7))
    assert p.prefix_of([])          # the event may still come
    assert p.prefix_of([LD(0x100, 7)])
    assert not p.prefix_of([LD(0x200, 7)])


def test_concat():
    p = ld(1) + st_(2)
    assert p.matches([LD(1), ST(2)])
    assert not p.matches([ST(2), LD(1)])
    assert p.prefix_of([LD(1)])
    assert not p.prefix_of([ST(2)])


def test_union():
    p = ld(1) | st_(2)
    assert p.matches([LD(1)])
    assert p.matches([ST(2)])
    assert not p.matches([LD(3)])


def test_star():
    p = Star(ld(1))
    assert p.prefix_of([])
    assert p.matches([])
    assert p.matches([LD(1)] * 5)
    assert not p.matches([LD(1), ST(1)])
    assert p.prefix_of([LD(1)] * 3)


def test_star_of_compound():
    p = Star(ld(1) + st_(2))
    assert p.matches([LD(1), ST(2)] * 3)
    assert not p.matches([LD(1), ST(2), LD(1)])
    assert p.prefix_of([LD(1), ST(2), LD(1)])  # mid-iteration


def test_exists_binds_witness():
    p = Exists("b", (0, 1), lambda b: ld(0x10, value_is(b)) + st_(0x20, value_is(b)))
    assert p.matches([LD(0x10, 1), ST(0x20, 1)])
    assert p.matches([LD(0x10, 0), ST(0x20, 0)])
    assert not p.matches([LD(0x10, 1), ST(0x20, 0)])  # witness must agree


def test_capture_and_guard():
    p = seq(ld(0x10, capture("v")),
            st_(0x20, capture("w")),
            Guard(lambda env: env["w"] == env["v"] + 1))
    assert p.matches([LD(0x10, 5), ST(0x20, 6)])
    assert not p.matches([LD(0x10, 5), ST(0x20, 7)])


def test_repeat_n_data_dependent():
    p = seq(ld(0x10, capture("n")),
            RepeatN(lambda env: env["n"], lambda i: ld(0x20)))
    assert p.matches([LD(0x10, 3), LD(0x20), LD(0x20), LD(0x20)])
    assert not p.matches([LD(0x10, 3), LD(0x20), LD(0x20)])
    assert p.prefix_of([LD(0x10, 3), LD(0x20)])


def test_repeat_n_per_index_body():
    p = seq(ld(0x10, capture("n")),
            RepeatN(lambda env: env["n"],
                    lambda i: ld(0x20, value_is(i))))
    assert p.matches([LD(0x10, 2), LD(0x20, 0), LD(0x20, 1)])
    assert not p.matches([LD(0x10, 2), LD(0x20, 1), LD(0x20, 0)])


def test_ambiguous_concat_backtracks():
    # (a* +++ a) requires at least one a: the split search must backtrack.
    p = Star(ld(1)) + ld(1)
    assert p.matches([LD(1)])
    assert p.matches([LD(1)] * 4)
    assert not p.matches([])


def test_value_where():
    p = ld(1, value_where(lambda v: v % 2 == 0))
    assert p.matches([LD(1, 4)])
    assert not p.matches([LD(1, 5)])


def test_star_keeps_every_environment():
    # Both star arms consume LD(1) and end at the same position; only the
    # parse that captured "b" satisfies the guard.
    p = seq(Star(ld(1, capture("a")) | ld(1, capture("b"))),
            Guard(lambda env: "b" in env), st_(2))
    assert p.prefix_of([LD(1), ST(2)])
    assert p.matches([LD(1), ST(2)])


def test_star_iterations_consume_events():
    # A zero-width iteration would bind "x"; iterations must consume.
    p = seq(Star(Exists("x", (0,), lambda v: Epsilon()) | ld(1)),
            Guard(lambda env: "x" in env))
    assert not p.matches([])
    assert not p.matches([LD(1)])


def test_bind_rebinds_or_rejects():
    p = seq(ld(1, capture("v")),
            Bind(lambda env: dict(env, w=env["v"] * 2) if env["v"] else None),
            st_(2, lambda v, env: env if v == env["w"] else None))
    assert p.matches([LD(1, 3), ST(2, 6)])
    assert not p.matches([LD(1, 3), ST(2, 3)])
    assert not p.prefix_of([LD(1, 0), ST(2, 0)])


def test_guards_after_the_last_event_wait_for_the_next():
    p = seq(ld(1, capture("v")), Guard(lambda env: env["v"] == 1), st_(2))
    assert p.prefix_of([LD(1, 0)])       # not evaluated yet
    assert not p.matches([LD(1, 0)])
    assert not p.prefix_of([LD(1, 0), ST(2)])
    assert Guard(lambda env: False).prefix_of([])


def test_checker_names_the_first_rejected_event():
    checker = OnlineChecker(Star(ld(1)) + st_(2))
    assert checker.check([LD(1), LD(1)])
    assert not checker.check([LD(1), LD(1), ST(3, 5), ST(2)])
    assert (checker.bad_index, checker.bad_event) == (2, ST(3, 5))
    assert checker.rejection() == "event 2 (st 0x3 = 0x5)"


def test_nested_star_union():
    p = Star(union(ld(1), st_(2) + st_(3)))
    assert p.matches([LD(1), ST(2), ST(3), LD(1)])
    assert not p.matches([ST(2), LD(1)])
    assert p.prefix_of([LD(1), ST(2)])


# -- properties ---------------------------------------------------------------

addresses = st.sampled_from([1, 2, 3])
events = st.tuples(st.sampled_from(["ld", "st"]), addresses,
                   st.integers(0, 3))


names = st.sampled_from(["a", "b"])


@st.composite
def preds(draw, depth=2):
    leaves = ["event", "capture", "witness", "guard"]
    kind = draw(st.sampled_from(
        leaves + ["concat", "union", "star", "exists", "repeat"]
        if depth > 0 else leaves))
    if kind == "concat":
        return draw(preds(depth=depth - 1)) + draw(preds(depth=depth - 1))
    if kind == "union":
        return draw(preds(depth=depth - 1)) | draw(preds(depth=depth - 1))
    if kind == "star":
        return Star(draw(preds(depth=depth - 1)))
    name = draw(names)
    if kind == "guard":
        if draw(st.booleans()):
            return Guard(lambda env: name in env)
        return Guard(lambda env: env.get(name) == 1)
    if kind in ("exists", "repeat"):
        body = draw(preds(depth=depth - 1))
        if kind == "exists":
            return Exists(name, (0, 1), lambda v: body)
        return RepeatN(lambda env: 2 if name in env else 1, lambda i: body)
    step = event(draw(st.sampled_from(["ld", "st"])), draw(addresses),
                 capture(name) if kind == "capture" else None)
    if kind == "witness":
        return Exists(name, (0, 1), lambda v: step)
    return step


@settings(max_examples=120, deadline=None)
@given(preds(), st.lists(events, max_size=5))
def test_match_implies_every_prefix_admissible(pred, trace):
    """Soundness of `prefix_of` against `matches`: if a trace matches, all
    its prefixes must be admissible prefixes."""
    trace = list(trace)
    if pred.matches(trace):
        for k in range(len(trace) + 1):
            assert pred.prefix_of(trace[:k])


@settings(max_examples=120, deadline=None)
@given(preds(), st.lists(events, max_size=4))
def test_streaming_verdicts_agree_with_whole_trace_verdicts(pred, trace):
    """Fed one event at a time, the checker accepts after k events iff
    ``matches(trace[:k])``, and stays live iff ``prefix_of(trace[:k])``."""
    trace = list(trace)
    checker = OnlineChecker(pred)
    for k in range(len(trace) + 1):
        assert checker.check(trace[:k]) == pred.prefix_of(trace[:k])
        assert checker.can_end() == pred.matches(trace[:k])


ALPHABET = [("ld", 1, 0), ("ld", 2, 0), ("st", 1, 0), ("st", 2, 0),
            ("ld", 3, 0), ("st", 3, 0)]


def _some_extension_matches(pred, trace, depth):
    if pred.matches(trace):
        return True
    if depth == 0:
        return False
    return any(_some_extension_matches(pred, trace + [ev], depth - 1)
               for ev in ALPHABET)


@settings(max_examples=80, deadline=None)
@given(preds(depth=2), st.lists(st.sampled_from(ALPHABET), max_size=3))
def test_partial_agrees_with_bounded_extension_search(pred, trace):
    """`prefix_of` vs ground truth: for small predicates over a small
    alphabet, trace is a prefix iff some bounded extension matches.
    (Extensions are searched to depth 4, which covers every predicate the
    strategy can generate except deep concatenations -- for those the
    search may be incomplete, so only the "prefix_of=False" direction is
    asserted unconditionally.)"""
    trace = list(trace)
    claims = pred.prefix_of(trace)
    found = _some_extension_matches(pred, trace, depth=4)
    if found:
        assert claims, "a matching extension exists but prefix_of said no"
    if not claims:
        assert not found


# -- an independent reference for `matches` -----------------------------------


def ends(pred, trace, i, env):
    """Every way ``pred`` can consume ``trace[i:j]`` starting in ``env``:
    the set of ``(j, env')``, environments as frozensets of items. Star
    iterations must consume at least one event."""
    if isinstance(pred, Step):
        new = pred.fn(trace[i], dict(env)) if i < len(trace) else None
        return set() if new is None else {(i + 1, frozenset(new.items()))}
    if isinstance(pred, Bind):
        new = pred.fn(dict(env))
        return set() if new is None else {(i, frozenset(new.items()))}
    if isinstance(pred, Concat):
        return {end for j, mid in ends(pred.first, trace, i, env)
                for end in ends(pred.second, trace, j, mid)}
    if isinstance(pred, Union):
        return set().union(*(ends(arm, trace, i, env) for arm in pred.arms))
    assert isinstance(pred, Star), pred
    found = frontier = {(i, env)}
    while frontier:
        frontier = {(k, after) for j, before in frontier
                    for k, after in ends(pred.body, trace, j, before)
                    if k > j} - found
        found = found | frontier
    return found


def _preds_by_size(limit):
    """Every predicate of at most ``limit`` nodes over the leaves below,
    `Concat`, `Union` and `Star`, grouped by node count."""
    by_size = {1: [ld(1), ld(1, capture("a")), st_(2),
                   Guard(lambda env: "a" in env),
                   Guard(lambda env: env.get("a") == 1)]}
    for n in range(2, limit + 1):
        by_size[n] = [Star(body) for body in by_size[n - 1]]
        for k in range(1, n - 1):
            for left in by_size[k]:
                for right in by_size[n - 1 - k]:
                    by_size[n] += [Concat(left, right), Union(left, right)]
    return by_size


def test_matches_agrees_with_the_reference_on_every_small_predicate():
    alphabet = [LD(1, 0), LD(1, 1), ST(2, 0)]
    traces = [list(events) for n in range(4)
              for events in itertools.product(alphabet, repeat=n)]
    preds = [p for group in _preds_by_size(5).values() for p in group]
    assert (len(preds), len(traces)) == (1525, 40)
    disagreements = [
        (pred, trace) for pred in preds for trace in traces
        if pred.matches(trace) != any(
            j == len(trace) for j, _ in ends(pred, trace, 0, frozenset()))]
    assert disagreements == []
