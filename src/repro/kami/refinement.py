"""Trace-containment refinement checking (paper section 5.7).

The paper proves the pipelined processor refines the single-cycle spec:
every trace of the implementation is a trace of the spec. Our executable
analogue runs both processors against *independent copies* of the same
deterministic external world and checks that the implementation's MMIO
label trace is a prefix of (or equal to) the spec's.

Determinism makes this sound and complete for a given world: the spec,
being single-cycle and deterministic, has exactly one trace per world, so
prefix-of-that-trace is precisely trace containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .. import obs
from . import memory
from .framework import ExternalWorld, System
from .pipeline_proc import make_pipelined_processor
from .spec_proc import make_spec_processor

_REFINEMENT_CHECKS = obs.counter("kami.refinement_checks")
_REFINEMENT_EVENTS = obs.counter("kami.refinement_events_compared")


@dataclass
class RefinementResult:
    ok: bool
    impl_trace: List[Tuple[str, int, int]]
    spec_trace: List[Tuple[str, int, int]]
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def match_trace_prefix(impl_trace: List[Tuple[str, int, int]],
                       spec_trace: List[Tuple[str, int, int]],
                       ) -> RefinementResult:
    """Check ``impl_trace`` is a prefix of (or equal to) ``spec_trace``.

    Pure trace containment, shared by `check_refinement` and the
    differential fuzzing oracle (`repro.fuzz.oracle`): on mismatch the
    result's ``detail`` pinpoints the first diverging event; an
    implementation trace longer than the spec's is also a failure (the
    impl produced events the spec never could)."""
    if spec_trace[:len(impl_trace)] == impl_trace:
        return RefinementResult(True, impl_trace, spec_trace)
    for i, (a, b) in enumerate(zip(impl_trace, spec_trace)):
        if a != b:
            return RefinementResult(
                False, impl_trace, spec_trace,
                "divergence at event %d: impl %r vs spec %r" % (i, a, b))
    return RefinementResult(
        False, impl_trace, spec_trace,
        "impl trace longer than spec could produce")


def build_spec_system(image: bytes, world: ExternalWorld,
                      ram_words: int = 1 << 16) -> System:
    """Single-cycle spec processor attached to memory and ``world``.

    `memory.make_memory_module` is looked up at call time, here and in
    `build_pipelined_system`, so a fault the mutation catalog
    (`repro.fuzz.mutate`) patches into that module reaches both."""
    mem = memory.make_memory_module(image, ram_words=ram_words)
    proc = make_spec_processor()
    return System([proc, mem], world)


def build_pipelined_system(image: bytes, world: ExternalWorld,
                           ram_words: int = 1 << 16,
                           icache_words: int = 4096) -> System:
    """The paper's p4mm: pipelined processor + I$ + BTB + memory."""
    mem = memory.make_memory_module(image, ram_words=ram_words)
    proc = make_pipelined_processor(icache_words=icache_words)
    return System([proc, mem], world)


def check_refinement(image: bytes, make_world: Callable[[], ExternalWorld],
                     impl_steps: int, ram_words: int = 1 << 16,
                     icache_words: int = 1024,
                     spec_step_budget: Optional[int] = None) -> RefinementResult:
    """Run the pipelined implementation for ``impl_steps`` Kami steps and
    check its MMIO trace is a prefix of the spec's trace on the same world.

    ``make_world`` must construct a fresh, deterministic external world
    each call (both processors get their own copy).
    """
    _REFINEMENT_CHECKS.inc()
    with obs.span("kami.refinement_check", cat="kami",
                  args={"impl_steps": impl_steps}):
        impl = build_pipelined_system(image, make_world(),
                                      ram_words=ram_words,
                                      icache_words=icache_words)
        impl.run(impl_steps)
        impl_trace = impl.mmio_trace()

        spec = build_spec_system(image, make_world(), ram_words=ram_words)
        budget = (spec_step_budget if spec_step_budget is not None
                  else impl_steps)

        def spec_caught_up(system: System) -> bool:
            return len(system.mmio_events) >= len(impl_trace)

        spec.run(budget, stop=spec_caught_up)
        spec_trace = spec.mmio_trace()
    _REFINEMENT_EVENTS.inc(len(impl_trace))

    return match_trace_prefix(impl_trace, spec_trace)
