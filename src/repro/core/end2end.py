"""The end-to-end theorem as an executable checker (paper section 5.9).

The paper's ``end2end_lightbulb``: running the pipelined processor ``p4mm``
on any memory containing the lightbulb binary at address 0 produces only
I/O traces that are prefixes of traces allowed by ``goodHlTrace``.

`run_end_to_end` reproduces the theorem's *setup* literally -- compile the
program in-system, place the bytes at address 0, attach the processor to
the MMIO world -- and checks the theorem's *conclusion* on the execution:
``prefix_of(goodHlTrace)`` holds for the observed trace at every point
during the execution, as the theorem says. An `OnlineChecker` consumes
the new events after every checkpoint, so every event is checked, and a
violation names the first event outside the spec. The adversarial
harness feeds malicious packet streams, which is how the security reading
("no crafted packet can make the system deviate") is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..fuzz.generator import adversarial_frames
from ..kami.refinement import build_pipelined_system, build_spec_system
from ..platform.net import is_valid_command
from ..riscv.machine import RiscvMachine
from ..sw.program import Platform, compiled_lightbulb, make_platform
from ..sw.specs import good_hl_trace
from ..traces.online import OnlineChecker

Event = Tuple[str, int, int]

_RUNS = obs.counter("end2end.runs")
_CHECKPOINTS = obs.counter("end2end.checkpoints")
_PREFIX_CHECKS = obs.counter("end2end.prefix_checks")
_FRAMES_INJECTED = obs.counter("end2end.frames_injected")
_FRAMES_ACCEPTED = obs.counter("end2end.frames_accepted")


@dataclass
class EndToEndResult:
    """Outcome of one end-to-end run."""

    ok: bool
    trace: List[Event]
    bulb_history: List[int]
    detail: str = ""
    checkpoints: int = 0
    instructions: int = 0

    def __bool__(self) -> bool:
        return self.ok


class _InjectionSchedule:
    """Delivers frames to the NIC at scheduled checkpoint indices."""

    def __init__(self, platform: Platform,
                 frames: Sequence[Tuple[int, bytes]]):
        self.platform = platform
        self.pending = sorted(frames, key=lambda t: t[0])
        self.delivered: List[bytes] = []
        self.accepted: List[bytes] = []

    def tick(self, checkpoint: int) -> None:
        while self.pending and self.pending[0][0] <= checkpoint:
            _, frame = self.pending.pop(0)
            self.delivered.append(frame)
            _FRAMES_INJECTED.inc()
            obs.instant("end2end.inject_frame", cat="end2end",
                        args={"bytes": len(frame)})
            if self.platform.lan.inject_frame(frame):
                self.accepted.append(frame)
                _FRAMES_ACCEPTED.inc()


def run_end_to_end(frames: Sequence[Tuple[int, bytes]] = (),
                   processor: str = "isa",
                   max_units: int = 400_000,
                   checkpoint_every: int = 2_000,
                   platform: Optional[Platform] = None,
                   buggy_driver: bool = False,
                   fast: bool = True) -> EndToEndResult:
    """Run the lightbulb system end to end and check the theorem.

    ``frames`` is a list of (checkpoint index, frame bytes) injections;
    ``processor`` selects the execution substrate: "isa" (the ISA-level
    machine -- fast), "kami-spec" (single-cycle Kami model) or "p4mm" (the
    pipelined Kami processor of the theorem statement). ``max_units`` is
    instructions for "isa" and Kami steps otherwise. ``fast`` (``"isa"``
    only) runs the machine through the fast-path engine
    (`repro.riscv.fastpath`), which is differentially checked to be
    bit-identical to the reference interpreter; pass ``fast=False`` to
    force the reference loop.
    """
    compiled = compiled_lightbulb(buggy_driver=buggy_driver, stack_top=1 << 16)
    plat = platform if platform is not None else make_platform()
    checker = OnlineChecker(good_hl_trace())
    schedule = _InjectionSchedule(plat, frames)

    if processor == "isa":
        machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                            mmio_bus=plat.bus, fast=fast)
        get_trace = lambda: machine.trace
        def advance(units):
            machine.run(units)
        instructions = lambda: machine.instret
    elif processor in ("kami-spec", "p4mm"):
        build = (build_pipelined_system if processor == "p4mm"
                 else build_spec_system)
        kwargs = {"ram_words": 1 << 14}
        if processor == "p4mm":
            kwargs["icache_words"] = len(compiled.image) // 4 + 4
        system = build(compiled.image, plat.kami_world(), **kwargs)
        get_trace = system.mmio_trace
        def advance(units):
            system.run(units)
        instructions = lambda: system.steps_taken
    else:
        raise ValueError("unknown processor %r" % processor)

    checkpoints = 0
    units_done = 0
    _RUNS.inc()
    with obs.span("end2end.run", cat="end2end",
                  args={"processor": processor, "max_units": max_units}):
        while units_done < max_units:
            step = min(checkpoint_every, max_units - units_done)
            with obs.span("end2end.checkpoint", cat="end2end"):
                advance(step)
            units_done += step
            checkpoints += 1
            _CHECKPOINTS.inc()
            schedule.tick(checkpoints)
            trace = get_trace()
            if len(trace) == checker.consumed:
                continue
            _PREFIX_CHECKS.inc()
            with obs.span("end2end.prefix_check", cat="end2end",
                          args={"events": len(trace)}):
                within_spec = checker.check(trace)
            if not within_spec:
                return EndToEndResult(
                    False, list(trace[:checker.bad_index + 1]),
                    plat.gpio.bulb_history,
                    detail="trace is not a prefix of goodHlTrace at %s, "
                           "after %d units" % (checker.rejection(),
                                                units_done),
                    checkpoints=checkpoints,
                    instructions=instructions())
        return EndToEndResult(True, list(get_trace()), plat.gpio.bulb_history,
                              checkpoints=checkpoints,
                              instructions=instructions())


def run_adversarial(seed: int, n_frames: int = 12,
                    processor: str = "isa",
                    max_units: int = 600_000,
                    fast: bool = True) -> EndToEndResult:
    """Fuzz the theorem: a pseudorandom adversarial packet stream.

    The stream comes from `repro.fuzz.generator.adversarial_frames`, the
    repo's single RNG discipline -- the same seed produces the same
    stimulus here and under ``python -m repro fuzz``.
    """
    stream = adversarial_frames(seed, n_frames)
    spacing = max(1, (max_units // 2_000) // (n_frames + 1))
    frames = [(5 + i * spacing, f) for i, f in enumerate(stream)]
    return run_end_to_end(frames=frames, processor=processor,
                          max_units=max_units, fast=fast)


def run_adversarial_suite(seeds: Sequence[int], n_frames: int = 12,
                          processor: str = "isa",
                          max_units: int = 600_000,
                          jobs: int = 1,
                          fast: bool = True) -> List[EndToEndResult]:
    """Fuzz the theorem across many seeds, ``jobs`` runs at a time.

    Each seed is an independent end-to-end execution, so the sweep is
    farmed to the parallel dispatcher; results come back in seed order
    (with counters merged back into this process's registry) regardless
    of worker scheduling.
    """
    if jobs is None or jobs == 1 or len(seeds) <= 1:
        return [run_adversarial(seed, n_frames=n_frames,
                                processor=processor, max_units=max_units,
                                fast=fast)
                for seed in seeds]
    from ..logic.dispatch import parallel_call

    kwargs_list = [{"seed": seed, "n_frames": n_frames,
                    "processor": processor, "max_units": max_units,
                    "fast": fast}
                   for seed in seeds]
    return parallel_call("repro.core.end2end:run_adversarial",
                         kwargs_list, jobs=jobs)


def expected_bulb_history(accepted_frames: Sequence[bytes]) -> List[int]:
    """Specification-level prediction of bulb transitions for a stream of
    frames the NIC accepted, assuming they are processed in order."""
    history: List[int] = []
    state = None
    for frame in accepted_frames:
        command = is_valid_command(frame)
        if command is None:
            continue
        level = 1 if command else 0
        if state is None or level != state:
            history.append(level)
            state = level
    return history
