"""One fleet node: a verified device behind a NIC on the fabric.

Each `Node` is the full vertical stack of the paper -- the compiled
application image (lightbulb or doorlock) on the fast-engine
`RiscvMachine`, attached to its own `platform` instance (SPI + LAN9250 +
GPIO on the MMIO bus) -- plus the thing the fleet exists to check: an
`OnlineChecker` holding the node's trace specification, fed the node's
new MMIO events as the scheduler interleaves its step quanta. Its
verdict is the spec's ``prefix_of``, and a violation names the first
event outside the spec.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import obs
from ..compiler import CompiledProgram, compile_program
from ..riscv.machine import RiscvMachine, RiscvUB
from ..sw import constants as C
from ..sw.doorlock import DEFAULT_PIN, LOCK_PIN, doorlock_program
from ..sw.doorlock_spec import good_lock_trace
from ..sw.program import Platform, compiled_lightbulb, make_platform
from ..sw.specs import good_hl_trace
from ..traces.online import OnlineChecker
from ..traces.predicates import TracePred

LIGHTBULB = "lightbulb"
DOORLOCK = "doorlock"
KINDS = (LIGHTBULB, DOORLOCK)

_SPEC_CHECKS = obs.counter("net.spec_checks")
_SPEC_VIOLATIONS = obs.counter("net.spec_violations")

_DOORLOCK_CACHE: Dict[int, CompiledProgram] = {}


def node_mac(index: int) -> bytes:
    """A locally-administered MAC per node index (02:52:50 = "RP")."""
    return bytes((0x02, 0x52, 0x50, 0x00, (index >> 8) & 0xFF, index & 0xFF))


def compiled_image(kind: str) -> CompiledProgram:
    if kind == LIGHTBULB:
        return compiled_lightbulb(stack_top=1 << 16)
    if kind == DOORLOCK:
        if 0 not in _DOORLOCK_CACHE:
            _DOORLOCK_CACHE[0] = compile_program(
                doorlock_program(), entry="main", stack_top=1 << 16)
        return _DOORLOCK_CACHE[0]
    raise ValueError("unknown node kind %r" % kind)


def spec_for(kind: str) -> TracePred:
    if kind == LIGHTBULB:
        return good_hl_trace()
    if kind == DOORLOCK:
        return good_lock_trace(DEFAULT_PIN)
    raise ValueError("unknown node kind %r" % kind)


def actuator_pin(kind: str) -> int:
    return C.LIGHTBULB_PIN if kind == LIGHTBULB else LOCK_PIN


class Node:
    def __init__(self, index: int, kind: str) -> None:
        if kind not in KINDS:
            raise ValueError("unknown node kind %r" % kind)
        self.index = index
        self.kind = kind
        self.mac = node_mac(index)
        self.platform: Platform = make_platform()
        compiled = compiled_image(kind)
        self.machine = RiscvMachine.with_program(
            compiled.image, mem_size=1 << 16, mmio_bus=self.platform.bus,
            fast=True)
        self.checker = OnlineChecker(spec_for(kind))
        self.frames_delivered = 0
        self.frames_accepted = 0
        self.spec_checks = 0
        self.ok = True
        self.violation: Optional[str] = None
        self.error: Optional[str] = None

    # -- fabric side ---------------------------------------------------------

    def deliver(self, frame: bytes) -> None:
        """The switch delivering one frame to this node's NIC."""
        self.frames_delivered += 1
        if self.platform.lan.inject_frame(frame):
            self.frames_accepted += 1

    # -- scheduler side ------------------------------------------------------

    def run(self, steps: int) -> int:
        """Execute up to ``steps`` instructions; a machine fault (RV32IM
        undefined behavior) is a verdict, not a crash of the fleet."""
        if self.error is not None or steps <= 0:
            return 0
        before = self.machine.instret
        try:
            self.machine.run(steps)
        except RiscvUB as err:
            self.error = str(err)
            self.ok = False
        return self.machine.instret - before

    def check_spec(self) -> bool:
        """Online theorem check: is the MMIO trace so far still a prefix
        of this node's spec? Skipped once the node is already failed."""
        if not self.ok:
            return False
        trace = self.machine.trace
        if len(trace) == self.checker.consumed:
            return True
        self.spec_checks += 1
        _SPEC_CHECKS.inc()
        if self.checker.check(trace):
            return True
        self.ok = False
        self.violation = ("trace is not a prefix of the %s spec at %s"
                          % (self.kind, self.checker.rejection()))
        _SPEC_VIOLATIONS.inc()
        obs.instant("net.spec_violation", cat="net",
                    args={"node": self.index, "kind": self.kind,
                          "events": len(trace),
                          "event": self.checker.bad_index})
        return False

    # -- reporting -----------------------------------------------------------

    def result(self) -> Dict:
        gpio = self.platform.gpio
        pin = actuator_pin(self.kind)
        actuations = sum(1 for kind, addr, _ in self.machine.trace
                         if kind == "st" and addr == C.GPIO_OUTPUT_VAL_ADDR)
        return {
            "node": self.index,
            "kind": self.kind,
            "mac": self.mac.hex(":"),
            "instructions": self.machine.instret,
            "mmio_events": len(self.machine.trace),
            "frames_delivered": self.frames_delivered,
            "frames_accepted": self.frames_accepted,
            "nic_dropped": self.platform.lan.dropped_frames,
            "spec_checks": self.spec_checks,
            "actuations": actuations,
            "actuator_level": (gpio.output_val >> pin) & 1,
            "ok": self.ok,
            "violation": self.violation,
            "error": self.error,
        }


__all__ = ["Node", "node_mac", "compiled_image", "spec_for",
           "actuator_pin", "LIGHTBULB", "DOORLOCK", "KINDS"]
