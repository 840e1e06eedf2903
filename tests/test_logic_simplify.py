"""Property tests for the simplifier and interval analysis: both must be
*sound* abstractions of evaluation -- the analogue of proving rewrite
lemmas before registering them with a proof assistant's tactic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import terms as T
from repro.logic.intervals import abstract, decide_bool
from repro.logic.simplify import linearize, normalize_bv, rebuild_linear, simplify

NAMES = ["x", "y", "z"]


@st.composite
def bv_terms(draw, depth=3, width=32):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return T.const(draw(st.integers(0, 2**width - 1)), width)
        return T.var(draw(st.sampled_from(NAMES)), width)
    op = draw(st.sampled_from(["add", "sub", "mul", "band", "bor", "bxor",
                               "shl", "lshr"]))
    lhs = draw(bv_terms(depth=depth - 1, width=width))
    rhs = draw(bv_terms(depth=depth - 1, width=width))
    return T.bv_binop(op, lhs, rhs)


@st.composite
def bool_terms(draw, depth=2):
    if depth == 0:
        op = draw(st.sampled_from(["eq", "ult", "slt"]))
        lhs = draw(bv_terms(depth=2))
        rhs = draw(bv_terms(depth=2))
        return {"eq": T.eq, "ult": T.ult, "slt": T.slt}[op](lhs, rhs)
    kind = draw(st.sampled_from(["leaf", "not", "and", "or"]))
    if kind == "leaf":
        return draw(bool_terms(depth=0))
    if kind == "not":
        return T.not_(draw(bool_terms(depth=depth - 1)))
    parts = [draw(bool_terms(depth=depth - 1)),
             draw(bool_terms(depth=depth - 1))]
    return (T.and_ if kind == "and" else T.or_)(*parts)


MODELS = st.fixed_dictionaries({n: st.integers(0, 2**32 - 1) for n in NAMES})


@settings(max_examples=200, deadline=None)
@given(bv_terms(), MODELS)
def test_normalize_bv_preserves_value(term, model):
    normalized = normalize_bv(term)
    assert T.evaluate(normalized, model) == T.evaluate(term, model)


@settings(max_examples=200, deadline=None)
@given(bv_terms(), MODELS)
def test_linearize_rebuild_preserves_value(term, model):
    rebuilt = rebuild_linear(linearize(term), term.width)
    assert T.evaluate(rebuilt, model) == T.evaluate(term, model)


@settings(max_examples=150, deadline=None)
@given(bool_terms(), MODELS)
def test_simplify_preserves_truth(formula, model):
    simplified = simplify(formula)
    assert T.evaluate(simplified, model) == T.evaluate(formula, model)


@settings(max_examples=200, deadline=None)
@given(bv_terms(), MODELS)
def test_interval_is_sound(term, model):
    word = abstract(term)
    value = T.evaluate(term, model)
    assert word.lo <= value <= word.hi
    assert value & word.bits.mask == word.bits.value


@settings(max_examples=150, deadline=None)
@given(bool_terms(), MODELS)
def test_interval_decisions_are_sound(formula, model):
    decision = decide_bool(formula)
    if decision is not None:
        assert T.evaluate(formula, model) == decision


def test_linear_cancellation_examples():
    x, y = T.var("x"), T.var("y")
    cases = [
        (T.sub(T.add(x, y), y), x),
        (T.add(T.sub(x, y), y), x),
        (T.sub(T.add(T.add(x, T.const(8)), y), T.add(y, T.const(8))), x),
        (T.add(T.mul(x, T.const(3)), x), T.mul(x, T.const(4))),
    ]
    for term, expected in cases:
        assert normalize_bv(term) is normalize_bv(expected), term


def test_simplify_decides_address_equalities():
    base, i = T.var("base"), T.var("i")
    lhs = T.add(T.add(base, T.const(4)), T.shl(i, T.const(2)))
    rhs = T.add(T.shl(i, T.const(2)), T.add(T.const(4), base))
    assert simplify(T.eq(lhs, rhs)) is T.TRUE
    assert simplify(T.eq(lhs, T.add(rhs, T.const(4)))) is T.FALSE


def test_urem_bound_lemma():
    x, y = T.var("x"), T.var("y")
    assert T.ult(T.bv_binop("urem", x, y), y) is T.not_(T.eq(y, T.const(0)))
