"""The spec automaton is a cache: what a process checked before never
changes a verdict.

Every checker of one spec object shares that spec's lazily built automaton
(`repro.traces.online`), so a checker of ``good_hl_trace()`` follows edges
that earlier checkers in the process derived. These tests compare such a
warmed automaton with a cold one -- a freshly built spec's -- on the traces
the theorem is checked on: adversarial streams, fleet nodes of both apps,
the spec's failure arms and the buggy driver's violation. They also pin the
admission rule, and show that neither caps of a few states nor states of
one hash change a verdict, and that a spec iteration leaves no captured
value behind, so states recur across frames.
"""

import pytest

from repro import obs
from repro.core.end2end import (
    DOORLOCK, LIGHTBULB, run_adversarial, run_end_to_end,
)
from repro.net import fleet
from repro.net.node import Node
from repro.platform.lan9250 import HW_CFG, HW_CFG_READY
from repro.platform.net import lightbulb_packet, oversize_packet
from repro.riscv.machine import RiscvMachine
from repro.sw.doorlock import DEFAULT_PIN
from repro.sw.doorlock_spec import good_lock_trace
from repro.sw.program import compiled_lightbulb, make_platform
from repro.sw.specs import good_hl_trace
from repro.traces import online
from repro.traces.online import OnlineChecker
from repro.traces.predicates import seq, st
from tests.test_spec_failure_arms import run_service

#: Events between the checkpoints at which the two checkers are compared.
EVERY = 41


def _adversarial(seed):
    return [(LIGHTBULB, run_adversarial(seed, n_frames=3,
                                          max_units=90_000).trace)]


def _fleet(profile, seed, nodes, duration):
    """The trace of every node of a `run_fleet` configuration."""
    seen = []

    class Recorded(Node):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append(self)

    original, fleet.Node = fleet.Node, Recorded
    try:
        fleet.run_fleet_shard(nodes=nodes, duration=duration,
                              profile=profile, seed=seed)
    finally:
        fleet.Node = original
    return [(node.kind, list(node.trace)) for node in seen]


def _failure_arm(arm):
    """The traces of `tests/test_spec_failure_arms.py`'s dead devices."""
    if arm == "never-boots":
        plat = make_platform(power_up_reads=10**9)
    elif arm == "never-ready":
        plat = make_platform(power_up_reads=0)
        read = plat.lan.reg_read
        plat.lan.reg_read = lambda addr: (read(addr) & ~HW_CFG_READY
                                          if addr == HW_CFG else read(addr))
    else:
        plat = make_platform()
        plat.spi.rx_latency = 10**9
    return [(LIGHTBULB, run_service(plat)[2])]


def _dies_mid_drain():
    """The device goes silent while the driver drains a frame."""
    plat = make_platform()
    machine = RiscvMachine.with_program(
        compiled_lightbulb(stack_top=1 << 16).image, mem_size=1 << 16,
        mmio_bus=plat.bus, fast=True)
    while not plat.lan.rx_enabled:
        machine.run(10)
    plat.lan.inject_frame(lightbulb_packet(True))
    while not plat.lan._active_words:
        machine.run(10)
    while len(plat.lan._active_words) > 5:
        machine.run(10)
    plat.spi.rx_latency = 10**9
    machine.run(60_000)
    return [(LIGHTBULB, machine.trace)]


def _buggy_driver():
    result = run_end_to_end(frames=[(5, oversize_packet(1600, True))],
                            max_units=60_000, buggy_driver=True)
    assert not result.ok
    return [(LIGHTBULB, result.trace)]


#: The fleet configurations are those of `tests/test_fleet.py`.
SOURCES = {
    **{"adversarial-%d" % seed: (lambda seed=seed: _adversarial(seed))
       for seed in (1, 2, 3, 4)},
    "fleet-clean-1": lambda: _fleet("clean", 1, 2, 14_000),
    "fleet-lossy-2": lambda: _fleet("lossy", 2, 4, 12_000),
    "fleet-chaos-4": lambda: _fleet("chaos", 4, 3, 10_000),
    "fleet-lossy-0": lambda: _fleet("lossy", 0, 2, 10_000),
    **{"failure-" + arm: (lambda arm=arm: _failure_arm(arm))
       for arm in ("dead-spi", "never-boots", "never-ready")},
    "failure-dies-mid-drain": _dies_mid_drain,
    "buggy-driver": _buggy_driver,
}


def _specs(kind):
    """The process-wide spec and a freshly built one."""
    if kind == DOORLOCK:
        return (good_lock_trace(DEFAULT_PIN),
                good_lock_trace.__wrapped__(DEFAULT_PIN))
    return good_hl_trace(), good_hl_trace.__wrapped__()


def _verdict(checker, trace):
    ok = checker.check(trace)
    return ok, checker.bad_index, checker.bad_event, checker.can_end()


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_warm_automaton_gives_the_verdicts_of_a_cold_one(source):
    hits = obs.counter("traces.edge_hits")
    for kind, trace in SOURCES[source]():
        warm_spec, cold_spec = _specs(kind)
        # A state is retained when derived a second time, so two passes
        # leave an edge for every event of the trace.
        for _ in range(2):
            warm_spec.prefix_of(trace)
        warm, cold = OnlineChecker(warm_spec), OnlineChecker(cold_spec)
        warm_hits = 0
        ends = list(range(0, len(trace), EVERY)) + [len(trace)]
        for end in ends:
            before = hits.value
            got = _verdict(warm, trace[:end])
            warm_hits += hits.value - before
            assert got == _verdict(cold, trace[:end]), (source, kind, end)
        assert warm_hits >= warm.consumed // 2, (source, kind)
    assert got[0] == (source != "buggy-driver")


def test_caps_of_a_few_states_change_no_verdict(monkeypatch):
    caps = (4, 3, 100)
    for name, cap in zip(("MAX_STATES", "MAX_EDGES", "MAX_SEEN"), caps):
        monkeypatch.setattr(online, name, cap)
    spec = good_hl_trace.__wrapped__()
    automaton = online._automaton(spec)
    hits = obs.counter("traces.edge_hits")
    bounded_hits = 0
    (_, violation), = SOURCES["buggy-driver"]()
    # Three events fit the caps, so their third pass follows edges; the
    # whole trace, checked twice, then fills every table time and again.
    largest = [0, 0, 0]
    for trace in [violation[:3]] * 3 + [violation] * 2:
        bounded, reference = OnlineChecker(spec), OnlineChecker(good_hl_trace())
        for k, event in enumerate(trace):
            before = hits.value
            verdict = bounded.feed([event])
            bounded_hits += hits.value - before
            assert verdict == reference.feed([event]), k
            assert (bounded.bad_index, bounded.bad_event) == \
                (reference.bad_index, reference.bad_event)
            if k % EVERY == 0:
                assert bounded.can_end() == reference.can_end(), k
            sizes = (len(automaton.states), automaton.edge_count,
                     len(automaton.seen))
            largest = [max(pair) for pair in zip(largest, sizes)]
    # Every table reached its cap and none went past it.
    assert largest == list(caps)
    assert automaton.clears > 10 and bounded_hits >= 3


def test_a_state_is_retained_the_second_time_it_is_derived():
    spec = seq(st(1), st(2), st(3))
    trace = [("st", 1, 0), ("st", 2, 0), ("st", 3, 0)]
    automaton = online._automaton(spec)
    counters = [obs.counter("traces." + name)
                for name in ("edge_hits", "edge_misses", "states_admitted")]
    passes = []
    for _ in range(3):
        before = [counter.value for counter in counters]
        assert spec.matches(trace)
        passes.append(tuple(counter.value - start for counter, start
                            in zip(counters, before)))
    # (hits, misses, states admitted) per pass: the first derives and
    # keeps nothing, the second retains all three states and fills their
    # edges, the third only follows edges.
    assert passes == [(0, 3, 0), (0, 3, 3), (3, 0, 0)]
    assert len(automaton.states) == 3 and automaton.edge_count == 3


def test_states_of_one_hash_are_never_confused(monkeypatch):
    # Every set of configurations hashes alike, so each retained state
    # is displaced by the next one admitted.
    monkeypatch.setattr(online, "hash", lambda configs: 0, raising=False)
    spec = good_hl_trace.__wrapped__()
    (_, trace), = SOURCES["buggy-driver"]()
    for _ in range(3):
        colliding, reference = OnlineChecker(spec), OnlineChecker(good_hl_trace())
        for end in range(0, len(trace) + 1, 7):
            assert _verdict(colliding, trace[:end]) == \
                _verdict(reference, trace[:end]), end
    assert len(online._automaton(spec).states) == 1


def test_iterations_forget_their_captures():
    # After the bulb acts, an ON run and an OFF run allow the same
    # future, so they must end in the same configurations: no value
    # captured from the frame outlives the iteration that read it.
    def final_state(b):
        result = run_end_to_end(frames=[(5, lightbulb_packet(b))],
                                max_units=40_000)
        assert result.ok and result.bulb_history == [int(b)]
        checker = OnlineChecker(good_hl_trace())
        assert checker.check(result.trace)
        return checker._state

    on, off = final_state(True), final_state(False)
    assert (on.conts, on.keys) == (off.conts, off.keys)
