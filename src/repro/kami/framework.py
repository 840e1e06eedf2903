"""A Kami-style rule-based hardware description framework (paper §5.7).

Kami models hardware as modules with private registers, *rules* that make
atomic state changes, and *methods* other modules (or the external world)
may call. Its semantic anchor is one-rule-at-a-time execution: any
concurrent hardware schedule is equivalent to firing rules one by one.

This module reproduces that discipline executably:

* a `Module` owns registers and rules; rules read/write registers and call
  methods;
* method calls that resolve to a sibling module's method run atomically
  within the same rule step (Kami's method inlining);
* method calls with no provider are *external*: they are answered by an
  `ExternalWorld` (our device models) and recorded in the step's label --
  the trace the refinement theorem speaks about;
* the `Scheduler` fires one enabled rule per step, using a deterministic
  priority order (a legal schedule; any schedule's trace set is contained
  in the nondeterministic semantics, which is what trace containment needs).

`tests/test_kami_framework.py` checks the atomicity and labeling rules;
the processors in `spec_proc`/`pipeline_proc` are built on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs

# Observability: a "stall" is one disabled-rule attempt (RuleAbort) -- the
# executable analogue of a pipeline stage waiting on a FIFO/scoreboard.
_STALLS = obs.counter("kami.stalls")
_STEPS = obs.counter("kami.rules_fired")
_EXT_CALLS = obs.counter("kami.external_calls")


@dataclass(frozen=True)
class MethodCall:
    """One labeled external method call: (method name, args, result)."""

    method: str
    args: Tuple[int, ...]
    result: Optional[int]


@dataclass(frozen=True)
class StepLabel:
    """The label of one Kami step: which rule fired, and the external
    method calls it made (the observable behavior)."""

    rule: str
    calls: Tuple[MethodCall, ...]


class RuleAbort(Exception):
    """Raised inside a rule body to signal the rule is not enabled under the
    current state. Kami rules are atomic, and the scheduler keeps them so
    by discipline rather than by rollback: a rule raises it before its
    first register write or external call (guards precede effects), so an
    aborted attempt has changed nothing."""


class ExternalWorld:
    """Answers method calls that no module provides (devices, memory)."""

    def call(self, method: str, args: Tuple[int, ...]) -> Optional[int]:
        raise KeyError("no provider for external method %r" % method)


class Module:
    """A hardware module: registers + rules + methods.

    Registers hold ints or lists of ints (register files, FIFOs). Rules are
    ``fn(m)`` callables registered with `rule`; methods are ``fn(m, *args)``
    callables registered with `method`.
    """

    def __init__(self, name: str):
        self.name = name
        self.regs: Dict[str, object] = {}
        self.rules: List[Tuple[str, Callable]] = []
        self.methods: Dict[str, Callable] = {}

    def reg(self, name: str, init) -> None:
        self.regs[name] = init

    def rule(self, name: str, fn: Callable) -> None:
        self.rules.append((name, fn))

    def method(self, name: str, fn: Callable) -> None:
        self.methods[name] = fn


class System:
    """A composition of modules plus the external world.

    Implements the labeled transition system: `step` fires at most one rule
    and returns its label (or None if no rule is enabled). The trace is the
    list of labels with at least one external call -- silent steps are
    invisible, as in the paper's trace definition.
    """

    def __init__(self, modules: Sequence[Module], external: ExternalWorld):
        self.modules = list(modules)
        self.external = external
        for module in self.modules:
            module.sys = self  # rule/method bodies dispatch through the system
        self._methods: Dict[str, Tuple[Module, Callable]] = {}
        for module in self.modules:
            for mname, fn in module.methods.items():
                if mname in self._methods:
                    raise ValueError("duplicate method %r" % mname)
                self._methods[mname] = (module, fn)
        self._rules: List[Tuple[str, Module, Callable]] = []
        for module in self.modules:
            for rname, fn in module.rules:
                self._rules.append(("%s.%s" % (module.name, rname), module, fn))
        self.trace: List[StepLabel] = []
        #: ``trace`` projected onto MMIO triples, extended as each label
        #: is recorded. Read-only to callers; `mmio_trace` copies it.
        self.mmio_events: List[Tuple[str, int, int]] = []
        self.steps_taken = 0
        self._pending_calls: List[MethodCall] = []
        self._next_rule = 0
        # The label of a firing without external calls, one per rule;
        # keyed by name, so reordering ``_rules`` keeps it valid.
        self._silent = {name: StepLabel(name, ()) for name, _, _ in self._rules}

    # -- method dispatch (used by rule bodies) ----------------------------------

    def call(self, method: str, *args: int) -> Optional[int]:
        """Call a method: inlined if a module provides it, external (and
        labeled) otherwise."""
        provider = self._methods.get(method)
        if provider is not None:
            module, fn = provider
            return fn(module, *args)
        result = self.external.call(method, tuple(args))
        self._pending_calls.append(MethodCall(method, tuple(args), result))
        return result

    # -- stepping -----------------------------------------------------------------

    def _try_rule(self, name: str, module: Module,
                  fn: Callable) -> Optional[StepLabel]:
        """Attempt one rule. If it fires, record the firing and return its
        label; if it aborts, return None (see `RuleAbort`: the rule has
        changed nothing). The scheduler allocates nothing for a silent
        firing or an abort: the pending-call list is replaced only after
        a labeled firing."""
        pending = self._pending_calls
        try:
            fn(module)
        except RuleAbort:
            _STALLS.value += 1
            if pending:
                # Device state cannot be rolled back; rules must evaluate
                # their guards before performing external calls.
                self._pending_calls = []
                raise RuntimeError(
                    "rule %r aborted after making external calls; "
                    "guards must precede effects" % name)
            return None
        except BaseException:
            # Calls made before the escape must not reach a later label.
            if pending:
                self._pending_calls = []
            raise
        _STEPS.value += 1
        self.steps_taken += 1
        if obs.ENABLED:
            obs.counter("kami.rule." + name).inc()
        if not pending:
            return self._silent[name]
        self._pending_calls = []
        _EXT_CALLS.value += len(pending)
        label = StepLabel(name, tuple(pending))
        self.trace.append(label)
        mmio = self.mmio_events
        for call in pending:
            if call.method == "mmioRead":
                mmio.append(("ld", call.args[0], call.result))
            elif call.method == "mmioWrite":
                mmio.append(("st", call.args[0], call.args[1]))
        return label

    def step(self) -> Optional[StepLabel]:
        """Fire the highest-priority enabled rule (round-robin start)."""
        rules = self._rules
        n = len(rules)
        idx = self._next_rule
        for _ in range(n):
            name, module, fn = rules[idx]
            idx += 1
            if idx == n:
                idx = 0
            label = self._try_rule(name, module, fn)
            if label is not None:
                self._next_rule = idx
                return label
        return None

    def cycle(self) -> int:
        """One hardware-like cycle: attempt every rule once, in priority
        order, against the sequentially-updated state.

        Kami's one-rule-at-a-time theorem is exactly what makes this
        schedule legal: firing several rules within a cycle is equivalent
        to some sequence of single-rule steps. Used by the performance
        benchmarks, where cycles (not rule firings) are the observable."""
        fired = 0
        for name, module, fn in self._rules:
            if self._try_rule(name, module, fn) is not None:
                fired += 1
        return fired

    def run_cycles(self, max_cycles: int,
                   stop: Optional[Callable[["System"], bool]] = None) -> int:
        """Run whole cycles; returns the number of cycles executed."""
        with obs.span("kami.run_cycles", cat="kami",
                      args={"max_cycles": max_cycles}):
            for i in range(max_cycles):
                if stop is not None and stop(self):
                    return i
                if self.cycle() == 0:
                    return i
            return max_cycles

    def run(self, max_steps: int,
            stop: Optional[Callable[["System"], bool]] = None) -> int:
        """Step until quiescent, ``stop`` holds, or the budget runs out."""
        with obs.span("kami.run", cat="kami", args={"max_steps": max_steps}):
            for i in range(max_steps):
                if stop is not None and stop(self):
                    return i
                if self.step() is None:
                    return i
            return max_steps

    def mmio_trace(self) -> List[Tuple[str, int, int]]:
        """The label trace projected onto MMIO triples (paper §5.9's
        ``KamiLabelSeqR``): mmioRead -> ("ld", a, v), mmioWrite -> ("st", a, v).
        A fresh list the caller owns."""
        return list(self.mmio_events)


class Fifo:
    """A bounded FIFO queue register helper (the ■ boxes of paper Fig. 4).

    Stored in a module register as a plain list; these helpers raise
    `RuleAbort` on enq-when-full / deq-when-empty before touching the
    queue, so a rule that calls them ahead of its other effects is
    correctly disabled."""

    def __init__(self, module: Module, name: str, capacity: int):
        self.module = module
        self.name = name
        self.capacity = capacity
        module.reg(name, [])

    def enq(self, item) -> None:
        q = self.module.regs[self.name]
        if len(q) >= self.capacity:
            raise RuleAbort("%s full" % self.name)
        q.append(item)

    def deq(self):
        q = self.module.regs[self.name]
        if not q:
            raise RuleAbort("%s empty" % self.name)
        return q.pop(0)

    def first(self):
        q = self.module.regs[self.name]
        if not q:
            raise RuleAbort("%s empty" % self.name)
        return q[0]

    def clear(self) -> None:
        self.module.regs[self.name] = []

    def empty(self) -> bool:
        return not self.module.regs[self.name]

    def full(self) -> bool:
        return len(self.module.regs[self.name]) >= self.capacity
