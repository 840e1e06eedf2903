"""Section 7.2.2: verification performance.

The paper: "the main Coq development is built and verified automatically
after every change ... less than 7.5GB of RAM and 80 minutes per build",
plus ~2 hours for the Kami refinement proofs. Our analogue times the two
corresponding activities: (a) the program-logic verification of all
lightbulb software, and (b) the hardware refinement + interface checks.
Their wall times are gated by perfbench: ``prove`` times (a), and
``theorem_p4mm`` times the Kami processor stepping that (b) spends its
time in.
"""

from repro.core.integration import (
    check_pipeline_refinement, check_spec_vs_isa,
)
from repro.sw.verify import verify_all


def test_software_verification_time(benchmark):
    """Analogue of the paper's 80-minute software proof build."""
    run = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    print()
    print("program-logic verification of the lightbulb software:")
    for report in run.reports:
        print("   ", report)
    print("   total obligations discharged:", run.total_obligations)
    assert len(run.reports) == 11
    assert run.total_obligations > 80


def test_hardware_refinement_time(benchmark):
    """Analogue of the paper's 2-hour Kami refinement check."""

    def refine():
        isa = check_spec_vs_isa()
        pipe = check_pipeline_refinement()
        return isa, pipe

    isa, pipe = benchmark.pedantic(refine, rounds=1, iterations=1)
    print()
    print("hardware checks: %s=%s, %s=%s"
          % (isa.name, "ok" if isa.ok else "FAIL",
             pipe.name, "ok" if pipe.ok else "FAIL"))
    assert isa.ok and pipe.ok
