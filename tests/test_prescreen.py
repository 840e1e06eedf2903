"""VC prescreening: the abstract-interpretation prescreener discharges a
substantial share of the proof obligations without any solver query, and
-- the soundness contract -- verification verdicts are bit-identical
with and without it."""

import pytest

from repro import obs
from repro.analysis.prescreen import Prescreener, mine_path
from repro.bedrock2.builder import (
    block,
    func,
    interact,
    lit,
    set_,
    stackalloc,
    store1,
    var,
)
from repro.bedrock2.extspec import MMIOSpec
from repro.bedrock2.vcgen import FunctionSpec, VerificationError, verify_function
from repro.logic import terms as T
from repro.sw.verify import (
    DOORLOCK_TASKS,
    LIGHTBULB_TASKS,
    run_verify_task,
)

PRESCREENED = obs.counter("analysis.obligations_prescreened")
MISSES = obs.counter("analysis.prescreen_misses")


def report_signature(report):
    return (report.function, report.ok, report.paths, report.obligations,
            tuple(report.timeouts))


# ---------------------------------------------------------------------------
# Path-condition mining


def _range(word):
    return (word.lo, word.hi)


def test_mine_path_equalities_and_bounds():
    x = T.var("x", 32)
    n = T.var("n", 32)
    env = mine_path((T.eq(x, T.const(8, 32)),
                     T.ult(n, T.const(100, 32))))
    assert _range(env[x]) == (8, 8)
    assert _range(env[n]) == (0, 99)
    assert env[x].bits.value == 8


def test_mine_path_mask_equality_gives_bits():
    buf = T.var("buf", 32)
    env = mine_path((T.eq(T.band(buf, T.const(3, 32)),
                          T.const(0, 32)),))
    assert env[buf].bits.mask & 3 == 3
    assert env[buf].bits.value & 3 == 0


def test_mine_path_transitive_bounds():
    # i < n together with not(380 < n) must bound i itself -- the fact
    # pattern the drain loop's in-bounds obligations hinge on.
    i = T.var("i", 32)
    n = T.var("n", 32)
    env = mine_path((T.ult(i, n),
                     T.not_(T.ult(T.const(380, 32), n))))
    assert _range(env[n]) == (1, 380)  # i < n with i >= 0 forces n >= 1
    assert _range(env[i]) == (0, 379)


def test_mine_path_negated_bound():
    x = T.var("x", 32)
    env = mine_path((T.not_(T.ult(T.const(10, 32), x)),))
    assert _range(env[x]) == (0, 10)


def test_prescreener_proves_only_consequences():
    x = T.var("x", 32)
    y = T.var("y", 32)

    class StateStub:
        path = (T.ult(x, T.const(10, 32)),)

    class DivisorStub:
        path = (T.ult(x, T.const(101, 32)), T.ult(y, T.const(6, 32)))

    hook = Prescreener()
    assert hook(StateStub(), T.ult(x, T.const(100, 32))) is True
    assert hook(StateStub(), T.ult(x, T.const(5, 32))) is False
    assert hook(StateStub(), T.TRUE) is True
    # y may be 0, and remu(x, 0) = x can reach 100.
    assert hook(DivisorStub(), T.ult(T.bv_binop("urem", x, y),
                                     T.const(6, 32))) is False
    assert hook.discharged == 2 and hook.attempts == 4


# ---------------------------------------------------------------------------
# Whole-workload equivalence and coverage


ALL_TASKS = LIGHTBULB_TASKS + DOORLOCK_TASKS


@pytest.mark.parametrize("task", ALL_TASKS)
def test_verdicts_identical_with_and_without_prescreen(task):
    with_hook = run_verify_task(task, prescreen=True)
    without = run_verify_task(task, prescreen=False)
    assert report_signature(with_hook) == report_signature(without)


def test_prescreen_discharges_at_least_ten_percent():
    PRESCREENED.reset()
    MISSES.reset()
    total = 0
    for task in ALL_TASKS:
        total += run_verify_task(task, prescreen=True).obligations
    discharged = PRESCREENED.value
    assert discharged + MISSES.value >= total
    assert total > 0
    assert discharged >= total / 10, (
        "prescreen discharged %d of %d obligations" % (discharged, total))


def test_prescreen_counter_untouched_when_disabled():
    PRESCREENED.reset()
    run_verify_task(ALL_TASKS[0], prescreen=False)
    assert PRESCREENED.value == 0


# ---------------------------------------------------------------------------
# The hook composes with verify_function directly


def test_verify_function_accepts_prescreen_hook():
    gpio = 0x1001_200C
    fn = func("f", ["v"], [],
              block(set_("x", var("v") & 0xFF),
                    interact([], "MMIOWRITE", lit(gpio), var("x"))))
    specs = {"f": FunctionSpec()}
    hook = Prescreener()
    report = verify_function({"f": fn}, "f", specs,
                             MMIOSpec([(0x1001_2000, 0x1001_3000)]),
                             prescreen=hook)
    assert report.ok
    assert hook.discharged >= 1


@pytest.mark.parametrize("prescreen", [None, Prescreener()],
                         ids=["solver-only", "prescreened"])
def test_verify_function_rejects_remainder_by_zero_index(prescreen):
    """``buf[x % y]`` with ``x < 101`` and ``y < 6`` overruns an 8-byte
    buffer: ``y`` may be 0, and ``x % 0 = x``."""
    fn = func("f", ["x", "y"], [],
              stackalloc("buf", 8,
                         store1(var("buf") + var("x").umod(var("y")), lit(0))))

    def pre(args):
        return {"x<101": T.ult(args[0], T.const(101)),
                "y<6": T.ult(args[1], T.const(6))}

    with pytest.raises(VerificationError):
        verify_function({"f": fn}, "f", {"f": FunctionSpec(pre=pre)},
                        MMIOSpec([]), prescreen=prescreen)
