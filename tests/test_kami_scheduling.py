"""Schedule-robustness of the Kami semantics (paper section 5.7).

Kami's one-rule-at-a-time theorem says any concurrent hardware schedule is
equivalent to some sequence of single-rule steps; the Bluespec compiler is
free to pick schedules. These tests exercise our analogue: the processor's
observable MMIO trace is the same under

* the priority scheduler (one rule per step),
* the cycle scheduler (every rule once per cycle),
* randomized rule priorities,

because the design's FIFOs and guards serialize the data flow. This is
what licenses using the cycle scheduler for performance measurements and
the step scheduler for refinement checking interchangeably.

The production scheduler is also checked step for step against a plain
reference scheduler kept here (`ReferenceSystem`), and the processors
against the guards-before-effects discipline it relies on
(`GuardCheckingSystem`)."""

import random

import pytest

from repro import obs
from repro.kami.framework import (
    ExternalWorld, Module, RuleAbort, StepLabel, System,
)
from repro.kami.memory import make_memory_module
from repro.kami.pipeline_proc import make_pipelined_processor
from repro.kami.spec_proc import make_spec_processor
from repro.platform.net import lightbulb_packet
from repro.riscv import insts as I
from repro.riscv.encode import encode_program
from repro.sw.program import compiled_lightbulb, make_platform


class ScriptedWorld(ExternalWorld):
    def __init__(self):
        self.state = 0
        self.writes = []

    def call(self, method, args):
        if method == "mmioRead":
            self.state = (self.state * 5 + args[0] + 1) & 0xFFFFFFFF
            return self.state
        if method == "mmioWrite":
            self.writes.append((args[0], args[1]))
            return None
        raise KeyError(method)


PROGRAM = encode_program([
    I.u_type("lui", 2, 0x10024),
    I.i_type("addi", 3, 0, 8),          # 8 rounds
    I.load("lw", 1, 2, 0),              # loop: read MMIO
    I.store("sw", 2, 1, 4),             #   echo it back
    I.i_type("addi", 3, 3, -1),
    I.branch("bne", 3, 0, -12),
    I.jal(0, 0),
])


def build(order=None, seed=None, system_cls=System):
    mem = make_memory_module(PROGRAM, ram_words=1 << 10)
    proc = make_pipelined_processor(icache_words=32)
    system = system_cls([proc, mem], ScriptedWorld())
    if seed is not None:
        names = [name for name, _, _ in system._rules]
        rng = random.Random(seed)
        rng.shuffle(names)
        by_name = {name: entry for entry in system._rules
                   for name in [entry[0]]}
        system._rules = [by_name[n] for n in names]
    return system


def run_steps(system, budget=20_000):
    system.run(budget)
    return system.mmio_trace()


def run_cycles(system, budget=20_000):
    system.run_cycles(budget)
    return system.mmio_trace()


def test_step_and_cycle_schedulers_agree():
    reference = run_steps(build())
    assert len(reference) == 16  # 8 reads + 8 writes
    assert run_cycles(build()) == reference


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55])
def test_randomized_priorities_preserve_trace(seed):
    reference = run_steps(build())
    shuffled = run_steps(build(seed=seed), budget=60_000)
    assert shuffled == reference


def test_randomized_priorities_on_lightbulb_refine_spec():
    """Full refinement under an adversarial rule order, on the real
    application binary with a packet in flight."""

    compiled = compiled_lightbulb(stack_top=1 << 16)

    def run_with(seed):
        plat = make_platform()
        mem = make_memory_module(compiled.image, ram_words=1 << 14)
        proc = make_pipelined_processor(
            icache_words=len(compiled.image) // 4 + 4)
        system = System([proc, mem], plat.kami_world())
        if seed is not None:
            names = [name for name, _, _ in system._rules]
            random.Random(seed).shuffle(names)
            by_name = {entry[0]: entry for entry in system._rules}
            system._rules = [by_name[n] for n in names]
        injected = [False]

        def stop(s):
            if plat.lan.rx_enabled and not injected[0]:
                plat.lan.inject_frame(lightbulb_packet(True))
                injected[0] = True
            return plat.gpio.bulb_on

        system.run(400_000, stop=stop)
        assert plat.gpio.bulb_on
        return system.mmio_trace()

    reference = run_with(None)
    assert run_with(99) == reference


def test_cycle_scheduler_counts_fired_rules():
    system = build()
    fired = system.cycle()
    assert fired >= 1  # at least the I$ fill engine runs


# -- the production scheduler against the reference scheduler ---------------------

class ReferenceSystem(System):
    """The plain scheduler: a fresh pending-call list per attempt, a new
    `StepLabel` per firing, and the MMIO trace projected from the label
    trace on every call. The production `System` must fire, abort and
    label exactly as this does, step for step."""

    def _try_rule(self, name, module, fn):
        self._pending_calls = []
        try:
            fn(module)
        except RuleAbort:
            obs.counter("kami.stalls").inc()
            if self._pending_calls:
                raise RuntimeError("rule %r aborted after making external "
                                   "calls" % name)
            return None
        label = StepLabel(name, tuple(self._pending_calls))
        obs.counter("kami.rules_fired").inc()
        if label.calls:
            obs.counter("kami.external_calls").inc(len(label.calls))
        if obs.ENABLED:
            obs.counter("kami.rule." + name).inc()
        self._pending_calls = []
        return label

    def step(self):
        n = len(self._rules)
        for k in range(n):
            idx = (self._next_rule + k) % n
            name, module, fn = self._rules[idx]
            label = self._try_rule(name, module, fn)
            if label is not None:
                self._next_rule = (idx + 1) % n
                self.steps_taken += 1
                if label.calls:
                    self.trace.append(label)
                return label
        return None

    def cycle(self):
        fired = 0
        for name, module, fn in self._rules:
            label = self._try_rule(name, module, fn)
            if label is not None:
                fired += 1
                self.steps_taken += 1
                if label.calls:
                    self.trace.append(label)
        return fired

    def mmio_trace(self):
        out = []
        for label in self.trace:
            for call in label.calls:
                if call.method == "mmioRead":
                    out.append(("ld", call.args[0], call.result))
                elif call.method == "mmioWrite":
                    out.append(("st", call.args[0], call.args[1]))
        return out


class GuardCheckingSystem(System):
    """The production scheduler, checking the discipline it relies on:
    a rule raises `RuleAbort` before any effect, so an aborted attempt
    changes no register. Snapshots every register and fails on an abort
    that changed one; the snapshot is retaken after each firing (until
    then, the aborts it saw have left the state as it was)."""

    _before = None

    def _try_rule(self, name, module, fn):
        if self._before is None:
            self._before = [
                (m, {key: list(value) if isinstance(value, list)
                     else dict(value) if isinstance(value, dict) else value
                     for key, value in m.regs.items()})
                for m in self.modules]
        label = super()._try_rule(name, module, fn)
        if label is not None:
            self._before = None
            return label
        for m, regs in self._before:
            if m.regs != regs:
                changed = sorted(key for key in set(regs) | set(m.regs)
                                 if regs.get(key) != m.regs.get(key))
                raise AssertionError("rule %r aborted after writing %s.%s"
                                     % (name, m.name, ", ".join(changed)))
        return None


def lightbulb_system(processor, system_cls=System):
    """The lightbulb binary on ``processor`` with its own platform."""
    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform()
    mem = make_memory_module(compiled.image, ram_words=1 << 14)
    if processor == "p4mm":
        proc = make_pipelined_processor(
            icache_words=len(compiled.image) // 4 + 4)
    else:
        proc = make_spec_processor()
    system = system_cls([proc, mem], plat.kami_world())
    return system, plat


def one_step(system):
    label = system.step()
    return None if label is None else (label.rule, label.calls)


def drive(system, plat, units, advance=one_step):
    """Call ``advance(system)`` ``units`` times, delivering one lightbulb
    frame to ``plat`` (if any) once its NIC is enabled. Returns what each
    call gave, the `kami.*` counter deltas, and the final labels, MMIO
    trace, step count and architectural state."""
    before = obs.REGISTRY.snapshot("kami.")
    outputs = []
    delivered = plat is None
    for _ in range(units):
        if not delivered and plat.lan.rx_enabled:
            plat.lan.inject_frame(lightbulb_packet(True))
            delivered = True
        outputs.append(advance(system))
    after = obs.REGISTRY.snapshot("kami.")
    proc, mem = system.modules
    return {
        "outputs": outputs,
        "counters": {name: value - before.get(name, 0)
                     for name, value in after.items()
                     if value != before.get(name, 0)},
        "labels": list(system.trace),
        "mmio": system.mmio_trace(),
        "steps": system.steps_taken,
        "state": (proc.regs["pc"], list(proc.regs["rf"]),
                  list(mem.regs["ram"])),
        "delivered": delivered,
    }


def assert_same_run(expected, actual):
    for key in expected:
        assert actual[key] == expected[key], key
    return actual


def test_p4mm_lightbulb_steps_like_reference_scheduler():
    """50k steps with a frame, with per-rule counters on."""
    was_enabled = obs.enabled()
    obs.enable(trace=False)
    try:
        run = assert_same_run(
            drive(*lightbulb_system("p4mm", ReferenceSystem), 50_000),
            drive(*lightbulb_system("p4mm"), 50_000))
    finally:
        if not was_enabled:
            obs.disable()
    counters = run["counters"]
    assert run["steps"] == counters["kami.rules_fired"] == 50_000
    assert counters["kami.stalls"] > 0
    assert counters["kami.rule.p4mm.decode"] > 0
    assert counters["kami.instructions_retired"] > 10_000
    assert run["delivered"] and run["mmio"]


def test_spec_lightbulb_steps_like_reference_scheduler():
    run = assert_same_run(
        drive(*lightbulb_system("kami-spec", ReferenceSystem), 10_000),
        drive(*lightbulb_system("kami-spec"), 10_000))
    assert run["steps"] == run["counters"]["kami.rules_fired"] == 10_000
    assert run["delivered"] and run["mmio"]


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55])
def test_shuffled_rule_orders_step_like_reference_scheduler(seed):
    run = assert_same_run(
        drive(build(seed=seed, system_cls=ReferenceSystem), None, 20_000),
        drive(build(seed=seed), None, 20_000))
    assert len(run["mmio"]) == 16


def test_cycle_scheduler_like_reference_scheduler():
    def one_cycle(system):
        return system.cycle()

    run = assert_same_run(
        drive(*lightbulb_system("p4mm", ReferenceSystem), 15_000,
              one_cycle),
        drive(*lightbulb_system("p4mm"), 15_000, one_cycle))
    assert sum(run["outputs"]) == run["counters"]["kami.rules_fired"]
    assert max(run["outputs"]) > 1
    assert run["delivered"] and run["mmio"]


@pytest.mark.parametrize("processor, units",
                         [("p4mm", 50_000), ("kami-spec", 10_000)],
                         ids=["p4mm", "kami-spec"])
def test_aborted_attempts_change_no_register_on_lightbulb(processor, units):
    """The processors follow guards-before-effects, which is what lets
    the scheduler skip rolling back an aborted attempt."""
    run = drive(*lightbulb_system(processor, GuardCheckingSystem), units)
    assert run["steps"] == units
    assert run["delivered"] and run["mmio"]


def test_guard_checker_flags_a_write_before_abort():
    m = Module("m")
    m.reg("x", 0)

    def late_guard(mod):
        mod.regs["x"] = 99
        raise RuleAbort("guard after effect")

    m.rule("late_guard", late_guard)
    system = GuardCheckingSystem([m], ExternalWorld())
    with pytest.raises(AssertionError, match="m.late_guard.*m.x"):
        system.step()
