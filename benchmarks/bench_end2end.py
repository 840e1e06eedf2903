"""Section 5.9: the end-to-end theorem, exercised as a benchmark.

Times the executable theorem checker: boot the compiled lightbulb on the
pipelined processor with adversarial traffic and verify the MMIO trace
stays within goodHlTrace; also reports the spec-checking throughput
(events matched per second), the analogue of proof-checking time for the
top-level statement.

The wall time of both theorem checks is gated by the ``theorem_isa`` and
``theorem_p4mm`` workloads of ``perfbench/``.
"""

from repro.core.end2end import run_adversarial, run_end_to_end
from repro.platform.net import lightbulb_packet
from repro.sw.specs import good_hl_trace


def test_end2end_theorem_isa(benchmark):
    """The composed check on the ISA-level machine with mixed traffic."""

    def run():
        return run_adversarial(seed=2026, n_frames=10, max_units=400_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("end-to-end (ISA machine): %d instructions, %d MMIO events, "
          "bulb history %r, in spec: %s"
          % (result.instructions, len(result.trace), result.bulb_history,
             result.ok))
    assert result.ok, result.detail


def test_end2end_theorem_p4mm(benchmark):
    """The theorem's own statement: p4mm, packet in, trace in spec."""

    def run():
        # p4mm boot (LAN init over SPI) takes ~60k single-rule steps;
        # inject well after RX comes up.
        return run_end_to_end(frames=[(8, lightbulb_packet(True)),
                                      (16, lightbulb_packet(False))],
                              processor="p4mm", max_units=350_000,
                              checkpoint_every=10_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("end-to-end (p4mm): %d Kami steps, %d MMIO events, bulb %r"
          % (result.instructions, len(result.trace), result.bulb_history))
    assert result.ok, result.detail
    assert result.bulb_history == [1, 0]


def test_spec_matching_throughput(benchmark):
    """How fast the trace-predicate engine decides membership -- the
    'proof checking' cost of the top-level spec."""
    # Produce one long representative trace once.
    result = run_end_to_end(frames=[(3, lightbulb_packet(True)),
                                    (9, lightbulb_packet(False))],
                            max_units=120_000)
    assert result.ok
    trace = result.trace
    spec = good_hl_trace()

    matched = benchmark(lambda: spec.prefix_of(trace))
    print()
    print("spec prefix check over %d events" % len(trace))
    assert matched
