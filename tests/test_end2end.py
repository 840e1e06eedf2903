"""The end-to-end theorem (paper §5.9) as tests: compiled binary at address
0, devices on the bus, every observed MMIO trace a prefix of goodHlTrace."""

import pytest

from repro.core.end2end import (
    expected_bulb_history, run_adversarial, run_end_to_end,
)
from repro.platform.net import (
    lightbulb_packet, non_udp_packet, oversize_packet, truncated_packet,
    wrong_ethertype_packet,
)


def test_idle_system_satisfies_spec():
    result = run_end_to_end(max_units=60_000)
    assert result.ok, result.detail
    assert result.bulb_history == []


def test_on_off_commands_actuate():
    result = run_end_to_end(frames=[(5, lightbulb_packet(True)),
                                    (15, lightbulb_packet(False)),
                                    (25, lightbulb_packet(True))],
                            max_units=300_000)
    assert result.ok, result.detail
    assert result.bulb_history == [1, 0, 1]


def test_malformed_frames_never_actuate():
    frames = [(5, truncated_packet()), (12, wrong_ethertype_packet()),
              (19, non_udp_packet()), (26, oversize_packet(2000))]
    result = run_end_to_end(frames=frames, max_units=300_000)
    assert result.ok, result.detail
    assert result.bulb_history == []


def test_bulb_follows_valid_commands_among_garbage():
    frames = [(5, truncated_packet()),
              (12, lightbulb_packet(True)),
              (25, non_udp_packet()),
              (35, lightbulb_packet(False)),
              (48, oversize_packet(2000))]
    result = run_end_to_end(frames=frames, max_units=400_000)
    assert result.ok, result.detail
    assert result.bulb_history == [1, 0]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_adversarial_fuzzing_isa(seed):
    """The security reading of the theorem: pseudorandom malicious packet
    streams cannot drive the system outside its specification."""
    result = run_adversarial(seed, n_frames=8, max_units=500_000)
    assert result.ok, result.detail


def test_end_to_end_on_kami_spec_processor():
    result = run_end_to_end(frames=[(5, lightbulb_packet(True))],
                            processor="kami-spec", max_units=150_000,
                            checkpoint_every=10_000)
    assert result.ok, result.detail
    assert result.bulb_history == [1]


def test_end_to_end_on_pipelined_processor():
    """The theorem's actual statement is about p4mm, the pipelined Kami
    processor with I$ and BTB."""
    result = run_end_to_end(frames=[(8, lightbulb_packet(True))],
                            processor="p4mm", max_units=250_000,
                            checkpoint_every=10_000)
    assert result.ok, result.detail
    assert result.bulb_history == [1]


def test_trace_grows_and_stays_in_spec():
    result = run_end_to_end(frames=[(5, lightbulb_packet(True))],
                            max_units=150_000)
    assert result.ok
    assert len(result.trace) > 500
    assert result.checkpoints > 10


def test_expected_history_model():
    frames = [lightbulb_packet(True), truncated_packet(),
              lightbulb_packet(True), lightbulb_packet(False)]
    assert expected_bulb_history(frames) == [1, 0]
    assert expected_bulb_history([truncated_packet()]) == []
    assert expected_bulb_history([lightbulb_packet(False)]) == [0]


def test_buggy_driver_violates_at_machine_level():
    """With the prototype's driver, an oversize frame overruns the buffer in
    machine memory. The overrun stomps the stack frame, and the processor
    then executes whatever follows -- in our setup the corruption reaches
    state the spec checker observes (the run deviates from goodHlTrace or
    faults on the XAddrs discipline). Either way the theorem's guarantee is
    demonstrably *absent* without the length check."""
    from repro.riscv.machine import RiscvUB

    try:
        result = run_end_to_end(frames=[(5, oversize_packet(2000, on=True))],
                                max_units=400_000, buggy_driver=True)
        # If no fault: the spec must have been violated, or -- if the
        # overrun corrupted only silent state -- the bulb may have been
        # switched without a valid command.
        assert (not result.ok) or result.bulb_history != [], \
            "buffer overflow had no observable effect; exploit demo broken"
    except RiscvUB:
        pass  # stack overran into code: caught by the XAddrs discipline


def test_violation_names_the_first_bad_event():
    """Every event is checked, so a rejected run stops at the first event
    outside goodHlTrace and names it."""
    from repro.sw.specs import good_hl_trace

    result = run_end_to_end(frames=[(5, oversize_packet(1600, True))],
                            max_units=60_000, buggy_driver=True)
    assert not result.ok
    bad = len(result.trace) - 1
    assert bad == 335
    spec = good_hl_trace()
    assert spec.prefix_of(result.trace[:bad])
    assert not spec.prefix_of(result.trace[:bad + 1])
    kind, addr, value = result.trace[bad]
    assert "event %d (%s 0x%x = 0x%x)" % (bad, kind, addr, value) \
        in result.detail
    assert "after %d units" % result.instructions in result.detail
