"""The end-to-end theorem as an executable checker (paper section 5.9).

The paper's ``end2end_lightbulb``: running the pipelined processor ``p4mm``
on any memory containing the lightbulb binary at address 0 produces only
I/O traces that are prefixes of traces allowed by ``goodHlTrace``.

`CheckedDevice` builds that device literally -- the app compiled
in-system, its bytes at address 0, the processor on its own MMIO world --
and checks the theorem's *conclusion* on its execution: an `OnlineChecker`
consumes every new MMIO event, so the trace is a prefix of the spec at
every point, and a violation names the first event outside it.
`run_end_to_end` is one lightbulb device fed a frame schedule;
`repro.net.node.Node` is the same device behind a switch port. The
adversarial harness feeds malicious packet streams, which is how the
security reading ("no crafted packet can make the system deviate") is
exercised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .. import obs
from ..compiler import CompiledProgram, compile_program
from ..fuzz.generator import adversarial_frames
from ..kami.framework import System
from ..kami.refinement import build_pipelined_system, build_spec_system
from ..platform.net import is_valid_command
from ..riscv.machine import RiscvMachine, RiscvUB
from ..sw.doorlock import DEFAULT_PIN, doorlock_program
from ..sw.doorlock_spec import good_lock_trace
from ..sw.program import compiled_lightbulb, make_platform
from ..sw.specs import good_hl_trace
from ..traces.online import OnlineChecker

Event = Tuple[str, int, int]

LIGHTBULB = "lightbulb"
DOORLOCK = "doorlock"

_RUNS = obs.counter("end2end.runs")
_CHECKPOINTS = obs.counter("end2end.checkpoints")
_PREFIX_CHECKS = obs.counter("end2end.prefix_checks")
_FRAMES_INJECTED = obs.counter("end2end.frames_injected")
_FRAMES_ACCEPTED = obs.counter("end2end.frames_accepted")


def compiled_image(kind: str, buggy_driver: bool = False) -> CompiledProgram:
    """The app's binary for a 64 KiB memory, compiled once per process.
    ``buggy_driver`` is the lightbulb with the prototype's NIC driver,
    which lacks the frame-length check."""
    if kind == LIGHTBULB:
        return compiled_lightbulb(buggy_driver=buggy_driver,
                                  stack_top=1 << 16)
    if kind == DOORLOCK and not buggy_driver:
        return _compiled_doorlock()
    raise ValueError("unknown app %r" % kind)


@functools.lru_cache(maxsize=None)
def _compiled_doorlock() -> CompiledProgram:
    return compile_program(doorlock_program(), entry="main",
                           stack_top=1 << 16)


class CheckedDevice:
    """One device of the section 5.9 statement, its trace under check.

    ``kind`` is the app and ``processor`` the substrate its binary runs
    on: "isa" (the ISA-level machine; ``fast`` selects the fast-path
    engine, differentially checked to be bit-identical to the reference
    interpreter), "kami-spec" (the single-cycle Kami model) or "p4mm"
    (the pipelined Kami processor of the theorem statement). A unit is
    an instruction on "isa" and a Kami step otherwise. Each device holds
    its own platform, so devices share nothing.
    """

    #: Counts the checks that had new events to consume.
    checks_counter = _PREFIX_CHECKS

    def __init__(self, kind: str, processor: str = "isa", fast: bool = True,
                 buggy_driver: bool = False) -> None:
        image = compiled_image(kind, buggy_driver).image
        self.kind = kind
        self.platform = make_platform()
        self.machine: Union[RiscvMachine, System]
        if processor == "isa":
            self.machine = RiscvMachine.with_program(
                image, mem_size=1 << 16, mmio_bus=self.platform.bus,
                fast=fast)
        elif processor == "kami-spec":
            self.machine = build_spec_system(
                image, self.platform.kami_world(), ram_words=1 << 14)
        elif processor == "p4mm":
            self.machine = build_pipelined_system(
                image, self.platform.kami_world(), ram_words=1 << 14,
                icache_words=len(image) // 4 + 4)
        else:
            raise ValueError("unknown processor %r" % processor)
        self.checker = OnlineChecker(good_hl_trace() if kind == LIGHTBULB
                                     else good_lock_trace(DEFAULT_PIN))
        self.frames_delivered = 0
        self.frames_accepted = 0
        self.spec_checks = 0
        self.ok = True
        self.error: Optional[str] = None

    @property
    def trace(self) -> List[Event]:
        """The MMIO trace so far (on Kami, the label trace projected onto
        MMIO events)."""
        if isinstance(self.machine, RiscvMachine):
            return self.machine.trace
        return self.machine.mmio_trace()

    @property
    def instructions(self) -> int:
        """Units executed so far."""
        if isinstance(self.machine, RiscvMachine):
            return self.machine.instret
        return self.machine.steps_taken

    def deliver(self, frame: bytes) -> None:
        """One frame arriving at the NIC."""
        self.frames_delivered += 1
        if self.platform.lan.inject_frame(frame):
            self.frames_accepted += 1

    def run(self, units: int) -> None:
        """Execute up to ``units`` units. A machine fault becomes the
        verdict (`error`) instead of escaping; a faulted device stops."""
        if self.error is not None:
            return
        try:
            self.machine.run(units)
        except RiscvUB as err:
            self.error = str(err)
            self.ok = False

    def check(self) -> bool:
        """Is the trace so far still a prefix of the app's spec? Feeds
        the checker only the events since the last check. A failed
        device stays failed and is not checked again."""
        if not self.ok:
            return False
        trace = self.trace
        if len(trace) == self.checker.consumed:
            return True
        self.spec_checks += 1
        self.checks_counter.inc()
        self.ok = self.checker.check(trace)
        return self.ok


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


def run_end_to_end(frames: Sequence[Tuple[int, bytes]] = (),
                   processor: str = "isa",
                   max_units: int = 400_000,
                   checkpoint_every: int = 2_000,
                   buggy_driver: bool = False,
                   fast: bool = True) -> EndToEndResult:
    """Run the lightbulb system end to end and check the theorem.

    ``frames`` is a list of (checkpoint index, frame bytes) injections;
    ``processor`` selects the execution substrate and ``fast`` the ISA
    engine, as for `CheckedDevice`. ``max_units`` is instructions for
    "isa" and Kami steps otherwise. The run stops at the first event
    outside ``goodHlTrace`` (the result's trace ends with it) or at a
    machine fault.
    """
    device = CheckedDevice(LIGHTBULB, processor, fast=fast,
                           buggy_driver=buggy_driver)
    pending = sorted(frames, key=lambda t: t[0])
    checkpoints = 0
    units_done = 0
    _RUNS.inc()
    with obs.span("end2end.run", cat="end2end",
                  args={"processor": processor, "max_units": max_units}):
        while device.ok and units_done < max_units:
            step = min(checkpoint_every, max_units - units_done)
            with obs.span("end2end.checkpoint", cat="end2end"):
                device.run(step)
            units_done += step
            checkpoints += 1
            while pending and pending[0][0] <= checkpoints:
                frame = pending.pop(0)[1]
                obs.instant("end2end.inject_frame", cat="end2end",
                            args={"bytes": len(frame)})
                device.deliver(frame)
            with obs.span("end2end.prefix_check", cat="end2end"):
                device.check()
    _CHECKPOINTS.inc(checkpoints)
    _FRAMES_INJECTED.inc(device.frames_delivered)
    _FRAMES_ACCEPTED.inc(device.frames_accepted)
    trace = device.trace
    detail = ""
    if device.error is not None:
        detail = "machine fault: %s" % device.error
    elif not device.ok:
        trace = trace[:device.checker.bad_index + 1]
        detail = ("trace is not a prefix of goodHlTrace at %s"
                  % device.checker.rejection())
    if detail:
        detail += ", after %d units" % device.instructions
    return EndToEndResult(device.ok, list(trace),
                          device.platform.gpio.bulb_history, detail=detail,
                          checkpoints=checkpoints,
                          instructions=device.instructions)


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
