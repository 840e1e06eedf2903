"""Static-analysis performance: lint throughput and VC prescreening.

Measures (a) the wall time of linting every shipped program -- the CI
``lint-programs`` step must stay cheap enough to run on each push -- and
(b) full software verification with and without the abstract-
interpretation prescreener (``verify --prescreen``), recording how many
obligations are discharged without a solver query. Verification wall
time is gated by perfbench's ``prove`` workload, which runs with the
prescreen on; the CI lint job gates the zero-findings result.
"""

from repro import obs
from repro.analysis import LintConfig, lint_program
from repro.analysis.domains import CsPairingSpec
from repro.bedrock2.extspec import MMIOSpec
from repro.platform.bus import MMIO_RANGES
from repro.sw import constants as C
from repro.sw.doorlock import doorlock_program
from repro.sw.program import lightbulb_program
from repro.sw.verify import verify_all, verify_doorlock


def _config():
    return LintConfig(
        mmio_ranges=MMIO_RANGES,
        ext_spec=MMIOSpec(MMIO_RANGES),
        cs_pairing=CsPairingSpec(addr=C.SPI_CSMODE_ADDR,
                                 acquire=C.CSMODE_HOLD,
                                 release=C.CSMODE_AUTO))


def _lint_workload():
    config = _config()
    findings = list(lint_program(lightbulb_program(), config))
    findings += lint_program(doorlock_program(), config)
    return findings


def _verify_workload(prescreen):
    run = verify_all(prescreen=prescreen)
    doorlock = verify_doorlock(prescreen=prescreen)
    return run, doorlock


def test_lint_shipped_programs(benchmark):
    """Linting the whole software stack is a sub-second operation (and
    finds nothing -- the zero-warnings gate)."""
    findings = benchmark(_lint_workload)
    assert findings == []


def test_prescreen_discharges_obligations(benchmark):
    """The prescreener proves a solid fraction of the workload's
    obligations abstractly, with verdicts identical to the pure-solver
    run (the soundness contract tested in tests/test_prescreen.py)."""
    counter = obs.counter("analysis.obligations_prescreened")
    before = counter.value
    run, doorlock = benchmark.pedantic(lambda: _verify_workload(True),
                                       rounds=1, iterations=1)
    discharged = counter.value - before
    total = run.total_obligations + sum(r.obligations
                                        for r in doorlock.reports)
    print()
    print("prescreen discharged %d/%d obligations abstractly"
          % (discharged, total))
    assert run.ok and doorlock.ok
    assert discharged >= total / 10
