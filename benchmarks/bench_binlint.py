"""Binary-lint performance: CFG recovery + abstract interpretation.

Measures (a) the wall time of the full ``lint --binary`` workload over
both shipped apps (CFG recovery, the per-function interval/known-bits
fixpoint, and translation validation) and (b) the static prescreening
cost the binlint oracle layer adds to one differential-fuzz seed -- the
layer runs on every generated program, so it must stay a small fraction
of the execution layers it fronts. The cost of the analysis is gated
by perfbench's ``fuzz_diff`` workload, which runs it on every program.
"""

from repro.analysis.binlint import BinaryLintConfig, lint_binary_program, \
    lint_image
from repro.compiler import compile_program
from repro.platform.bus import MMIO_RANGES
from repro.sw.doorlock import doorlock_program
from repro.sw.program import compiled_lightbulb, lightbulb_program
from repro.sw.verify import platform_mmio_spec

_STACK_TOP = 1 << 16


def _shipped_workload():
    findings = []
    for program, compiled in (
            (lightbulb_program(), compiled_lightbulb(stack_top=_STACK_TOP)),
            (doorlock_program(),
             compile_program(doorlock_program(), entry="main",
                             stack_top=_STACK_TOP))):
        config = BinaryLintConfig.for_platform(
            compiled.stack_top, MMIO_RANGES, ext_spec=platform_mmio_spec())
        findings += lint_binary_program(program, compiled, config)
    return findings


def _fuzz_layer_workload(seeds=range(4)):
    from repro.fuzz.generator import generate_program
    from repro.fuzz.oracle import DEV_BASE, DEV_SIZE

    config = BinaryLintConfig.for_platform(
        _STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),))
    findings = []
    for seed in seeds:
        compiled = compile_program(generate_program(seed),
                                   stack_top=_STACK_TOP)
        findings += lint_image(compiled.image, compiled.symbols, config)
    return findings


def test_binlint_shipped_programs(benchmark):
    """Binary-linting the whole software stack is a sub-second operation
    (and finds nothing -- the zero-warnings gate)."""
    findings = benchmark(_shipped_workload)
    assert findings == []


def test_binlint_fuzz_layer(benchmark):
    """The oracle's static layer over a batch of generated programs."""
    findings = benchmark(_fuzz_layer_workload)
    assert findings == []
