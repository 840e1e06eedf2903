"""The checked device (paper §5.9's processor x memory x world, its trace
under the app's spec) that both the end-to-end checker and the fleet
nodes run: machine faults are verdicts, and either app runs on any of
the three processors."""

import pytest

from repro.core.end2end import (
    DOORLOCK, LIGHTBULB, CheckedDevice, run_end_to_end,
)
from repro.net.node import Node
from repro.riscv.machine import RiscvMachine, RiscvUB
from repro.sw.doorlock import DEFAULT_PIN, LOCK_PIN, lock_packet
from repro.sw.doorlock_spec import good_lock_trace


def test_end_to_end_machine_fault_is_a_verdict(monkeypatch):
    """A machine fault ends the run with a failed verdict that names it
    and keeps the trace so far, instead of escaping (which would abort a
    whole ``end2end --seeds ... --jobs N`` sweep)."""
    trace_so_far = run_end_to_end(max_units=2_000).trace
    real_run = RiscvMachine.run
    calls = []

    def faulting_run(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RiscvUB("injected fault")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(RiscvMachine, "run", faulting_run)
    result = run_end_to_end(max_units=20_000)
    assert not result.ok
    assert result.detail == "machine fault: injected fault, after 2000 units"
    assert result.checkpoints == 2
    assert result.instructions == 2_000
    assert result.trace == trace_so_far


def test_device_fault_is_a_verdict():
    device = CheckedDevice(LIGHTBULB)
    device.run(5_000)
    assert device.check()
    device.machine.pc = 0x3  # into the middle of a word
    device.run(1_000)
    assert not device.ok
    assert "invalid instruction at pc=0x3" in device.error
    # A faulted device runs and checks no further.
    device.run(1_000)
    assert device.instructions == 5_000
    assert not device.check()


def test_node_reports_a_machine_fault():
    node = Node(0, LIGHTBULB)
    node.run(5_000)
    node.machine.pc = 0x3
    node.run(1_000)
    assert not node.check_spec()
    row = node.result()
    assert not row["ok"]
    assert row["violation"] is None
    assert "invalid instruction at pc=0x3" in row["error"]
    assert row["instructions"] == 5_000


@pytest.mark.parametrize("processor, rx_up", [("kami-spec", 10_000),
                                              ("p4mm", 40_000)])
def test_doorlock_on_kami_processors(processor, rx_up):
    """The doorlock binary on both Kami processors: the correct PIN
    unlocks, and every check holds against goodLockTrace."""
    device = CheckedDevice(DOORLOCK, processor)
    device.run(rx_up)
    assert device.check()
    assert device.platform.lan.rx_enabled
    device.deliver(lock_packet(DEFAULT_PIN, True))
    assert device.frames_accepted == 1
    gpio = device.platform.gpio
    for _ in range(100):
        device.run(2_000)
        assert device.check(), device.checker.rejection()
        if (gpio.output_val >> LOCK_PIN) & 1:
            break
    assert (gpio.output_val >> LOCK_PIN) & 1
    assert good_lock_trace(DEFAULT_PIN).prefix_of(device.trace)


def test_unknown_app_or_processor_is_rejected():
    with pytest.raises(ValueError, match="unknown app"):
        CheckedDevice("toaster")
    with pytest.raises(ValueError, match="unknown processor"):
        CheckedDevice(LIGHTBULB, "z80")
