"""The p4mm-calibrated cost model behind the static WCET analyzer.

The pipelined processor (`repro.kami.pipeline_proc`) is a rule-based Kami
module, and `System.run` counts *successful rule firings* -- that is the
cycle currency every dynamic number in this repo is quoted in.  The static
analyzer prices binaries in the same currency:

===================  =====  ====================================================
constant             value  where it comes from in ``pipeline_proc.py``
===================  =====  ====================================================
base CPI                 4  one firing per stage rule (fetch, decode, execute,
                            writeback) per retired instruction; stalls are
                            RuleAborts and cost nothing
mispredict penalty       7  ``5*fifo_depth - 3``: up to ``fifo_depth`` stale
                            fetch+decode firings queued in f2d (2 each) plus
                            ``fifo_depth - 1`` stale decode entries that reach
                            execute before the redirect drains them (3 each)
load-use stall           0  the scoreboard blocks decode with a RuleAbort --
                            aborted rules never count as firings
MMIO wait                0  MMIO reads/writes complete inside the one
                            execute firing (the bus is combinational here)
fill per word            1  the fill engine copies one icache word per firing,
                            so a cold start costs exactly ``icache_words``
===================  =====  ====================================================

Every executed control transfer (branch, jal, jalr) is charged the full
mispredict penalty: the BTB starts cold and the analyzer must not assume
training, which is precisely the static/measured tightness gap the report
tracks.  Straight-line instructions are free of penalty because the
pipeline's default next-pc prediction (pc+4) is always right for them.

`pipeline_cost_model` rebuilds the constants from the live pipeline module
at config time; any drift between this table and ``pipeline_proc.py`` --
renamed rules, a changed fifo depth, a new stage -- surfaces as B2A205
rather than as silently unsound bounds.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from typing import Dict, List

#: Rule names of the pipelined processor in registration (priority) order.
PIPELINE_RULES = ("writeback", "execute", "decode", "fetch", "fill")

#: Stage rules that fire exactly once per retired instruction.
STAGE_RULES = tuple(r for r in PIPELINE_RULES if r != "fill")


def mispredict_penalty_for(fifo_depth: int) -> int:
    """Worst-case wrong-path firings after a redirect: ``fifo_depth``
    stale fetches each reach decode (2 firings apiece) and all but one of
    them reach execute before the epoch flip squashes them (3 apiece)."""
    return 5 * fifo_depth - 3


@dataclass(frozen=True)
class CostModel:
    """Static price list, in successful-rule-firing units."""

    base_cpi: int = 4
    mispredict_penalty: int = 7
    load_use_stall: int = 0
    mmio_wait: int = 0
    fill_per_word: int = 1
    fifo_depth: int = 2

    def block_cost(self, n_instrs: int, control_transfer: bool) -> int:
        """Worst-case firings to retire one basic block."""
        cost = (self.base_cpi + self.load_use_stall) * n_instrs
        if control_transfer:
            cost += self.mispredict_penalty
        return cost

    def fill_cost(self, icache_words: int) -> int:
        """Cold-start firings before the first fetch can hit."""
        return self.fill_per_word * icache_words

    def to_json(self) -> Dict[str, int]:
        return asdict(self)


class CostModelDrift(RuntimeError):
    """The pipeline no longer matches the analyzer's calibration."""


def check_pipeline_drift(model: CostModel) -> List[str]:
    """Cross-check ``model`` against the live ``pipeline_proc`` module.

    Returns human-readable drift messages (empty when calibrated).  The
    checks are structural -- parameter defaults via `inspect.signature`
    and the registered rule names of a freshly built module -- so a
    pipeline refactor that invalidates the price list cannot slip past.
    """
    from ..kami.pipeline_proc import make_pipelined_processor

    drift: List[str] = []
    sig = inspect.signature(make_pipelined_processor)
    fifo_param = sig.parameters.get("fifo_depth")
    if fifo_param is None or fifo_param.default is inspect.Parameter.empty:
        drift.append("make_pipelined_processor lost its fifo_depth default; "
                     "the mispredict penalty can no longer be derived")
    elif fifo_param.default != model.fifo_depth:
        drift.append("pipeline fifo_depth default is %r but the cost model "
                     "was built for %d" % (fifo_param.default,
                                           model.fifo_depth))
    elif mispredict_penalty_for(model.fifo_depth) != model.mispredict_penalty:
        drift.append("mispredict penalty %d does not match 5*fifo_depth-3 "
                     "= %d" % (model.mispredict_penalty,
                               mispredict_penalty_for(model.fifo_depth)))
    module = make_pipelined_processor(icache_words=4)
    rules = tuple(name for name, _ in module.rules)
    if rules != PIPELINE_RULES:
        drift.append("pipeline rules %r no longer match the calibrated set "
                     "%r" % (rules, PIPELINE_RULES))
    else:
        stages = tuple(r for r in rules if r != "fill")
        if len(stages) != model.base_cpi:
            drift.append("pipeline has %d stage rules but base CPI is %d"
                         % (len(stages), model.base_cpi))
    return drift


def pipeline_cost_model() -> CostModel:
    """The calibrated model, drift-checked against the live pipeline: a
    mismatch raises `CostModelDrift`.  The lint front end instead prices
    with `CostModel` and reports each drift message as a B2A205
    diagnostic (`repro.analysis.wcet.drift_findings`)."""
    model = CostModel()
    drift = check_pipeline_drift(model)
    if drift:
        raise CostModelDrift("; ".join(drift))
    return model


__all__ = ["CostModel", "CostModelDrift", "PIPELINE_RULES", "STAGE_RULES",
           "check_pipeline_drift", "mispredict_penalty_for",
           "pipeline_cost_model"]
