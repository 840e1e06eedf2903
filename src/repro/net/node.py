"""One fleet node: a checked device behind a NIC on the fabric.

A `Node` is `repro.core.end2end.CheckedDevice` -- the compiled app
(lightbulb or doorlock) on the fast-engine ISA machine, its own platform
(SPI + LAN9250 + GPIO on the MMIO bus) and an `OnlineChecker` holding the
app's trace spec -- at a fleet slot with a MAC. The scheduler interleaves
its step quanta and checks, a machine fault is a verdict, and a violation
names the first event outside the spec.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import obs
from ..core.end2end import DOORLOCK, LIGHTBULB, CheckedDevice, compiled_image
from ..sw import constants as C
from ..sw.doorlock import LOCK_PIN

_SPEC_CHECKS = obs.counter("net.spec_checks")
_SPEC_VIOLATIONS = obs.counter("net.spec_violations")


def node_mac(index: int) -> bytes:
    """A locally-administered MAC per node index (02:52:50 = "RP")."""
    return bytes((0x02, 0x52, 0x50, 0x00, (index >> 8) & 0xFF, index & 0xFF))


class Node(CheckedDevice):
    """The fast-engine device at fleet slot ``index``, with its MAC."""

    checks_counter = _SPEC_CHECKS

    def __init__(self, index: int, kind: str) -> None:
        super().__init__(kind)
        self.index = index
        self.mac = node_mac(index)
        self.violation: Optional[str] = None

    def check_spec(self) -> bool:
        """`check`, naming the first event outside the spec when the
        node fails it."""
        if not self.ok:
            return False
        if self.check():
            return True
        self.violation = ("trace is not a prefix of the %s spec at %s"
                          % (self.kind, self.checker.rejection()))
        _SPEC_VIOLATIONS.inc()
        obs.instant("net.spec_violation", cat="net",
                    args={"node": self.index, "kind": self.kind,
                          "events": len(self.trace),
                          "event": self.checker.bad_index})
        return False

    def result(self) -> Dict:
        trace = self.trace
        pin = C.LIGHTBULB_PIN if self.kind == LIGHTBULB else LOCK_PIN
        actuations = sum(1 for kind, addr, _ in trace
                         if kind == "st" and addr == C.GPIO_OUTPUT_VAL_ADDR)
        return {
            "node": self.index,
            "kind": self.kind,
            "mac": self.mac.hex(":"),
            "instructions": self.instructions,
            "mmio_events": len(trace),
            "frames_delivered": self.frames_delivered,
            "frames_accepted": self.frames_accepted,
            "nic_dropped": self.platform.lan.dropped_frames,
            "spec_checks": self.spec_checks,
            "actuations": actuations,
            "actuator_level": (self.platform.gpio.output_val >> pin) & 1,
            "ok": self.ok,
            "violation": self.violation,
            "error": self.error,
        }


__all__ = ["Node", "node_mac", "compiled_image", "LIGHTBULB", "DOORLOCK"]
