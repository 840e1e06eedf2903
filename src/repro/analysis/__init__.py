"""Static analysis over Bedrock2 programs and their compiled images.

A lightweight abstract-interpretation layer that runs *before* symbolic
execution: where `repro.bedrock2.vcgen` explores paths and discharges
obligations with the SAT portfolio, this package answers cheaper
questions wholesale -- is every variable assigned before use, is any
store dead, is any branch unreachable, does every external call respect
the platform's `extspec` -- and prescreens verification conditions so
that abstractly-provable obligations never reach the solver.

The Bedrock2 AST is the one structured IR this package reads; the
compiler's intermediate FlatImp stays private to `repro.compiler`, and
the binary layer validates the compiled image against the source.

Layout (Figure-3 discipline: depends on bedrock2/kami/riscv/logic,
never the reverse -- vcgen receives the prescreener by injection):

* `repro.analysis.dataflow` -- the generic forward/backward walkers over
  the Bedrock2 AST, and a worklist fixpoint over explicit CFGs;
* `repro.analysis.domains`  -- abstract domains: definite assignment,
  words as `repro.logic.intervals.AbstractWord` intervals ∧ known bits,
  and the MMIO/chip-select protocol domain;
* `repro.analysis.lint`     -- the diagnostic passes (`python -m repro
  lint`), with stable ``B2Axxx`` codes;
* `repro.analysis.prescreen` -- the VC prescreener hooked into
  `repro.bedrock2.vcgen.VC` (``verify --prescreen``);
* `repro.analysis.cfg`      -- control-flow recovery from encoded RV32IM
  images (basic blocks, branch targets, the call graph);
* `repro.analysis.binlint`  -- the binary-level abstract interpreter and
  translation-validation lint (`python -m repro lint --binary`), with
  stable ``B2A1xx`` codes;
* `repro.analysis.costmodel` -- the p4mm-calibrated static price list
  (successful-rule-firing units), drift-checked against the live
  pipeline module;
* `repro.analysis.wcet`     -- interprocedural WCET and stack high-water
  bounds over recovered CFGs (`python -m repro lint --binary --timing`),
  with stable ``B2A2xx`` codes.
"""

from .binlint import (  # noqa: F401
    BinaryLintConfig,
    analyze_image,
    lint_binary_program,
    lint_compiled,
    lint_image,
    translation_validate,
)
from .cfg import BinaryCFG, call_graph, recover_cfg  # noqa: F401
from .costmodel import CostModel, pipeline_cost_model  # noqa: F401
from .lint import Diagnostic, LintConfig, lint_program  # noqa: F401
from .prescreen import Prescreener  # noqa: F401
from .wcet import (  # noqa: F401
    TimingConfig,
    TimingReport,
    analyze_timing,
    check_budgets,
    drift_findings,
)
