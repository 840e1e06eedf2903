"""Tests for the SAT solver, bit-blaster, and portfolio solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import ProofFailure, check_valid, is_satisfiable, prove
from repro.logic import terms as T
from repro.logic.intervals import abstract, decide_bool
from repro.logic.sat import SATISFIABLE, UNSATISFIABLE, solve_cnf


# -- SAT core ----------------------------------------------------------------

def test_sat_trivial():
    assert solve_cnf(1, [[1]])[0] == SATISFIABLE
    assert solve_cnf(1, [[1], [-1]])[0] == UNSATISFIABLE


def test_sat_empty_clause_unsat():
    assert solve_cnf(1, [[]])[0] == UNSATISFIABLE


def test_sat_model_satisfies():
    clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
    result, model = solve_cnf(3, clauses)
    assert result == SATISFIABLE
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_sat_pigeonhole_3_into_2_unsat():
    # var p(i,h): pigeon i in hole h; 3 pigeons, 2 holes.
    def v(i, h):
        return i * 2 + h + 1
    clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
    for h in range(2):
        for i in range(3):
            for j in range(i + 1, 3):
                clauses.append([-v(i, h), -v(j, h)])
    assert solve_cnf(6, clauses)[0] == UNSATISFIABLE


def test_sat_random_3cnf_agrees_with_bruteforce():
    rng = random.Random(12345)
    for _ in range(30):
        n = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(3, 25)):
            clause = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)]
            clauses.append(clause)
        result, model = solve_cnf(n, clauses)
        brute_sat = False
        for bits in range(1 << n):
            assign = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
                brute_sat = True
                break
        assert (result == SATISFIABLE) == brute_sat
        if result == SATISFIABLE:
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


# -- validity checking --------------------------------------------------------

def test_valid_tautology():
    x = T.var("x")
    assert check_valid(T.eq(x, x)).valid
    assert check_valid(T.or_(T.ult(x, T.const(5)), T.not_(T.ult(x, T.const(5))))).valid


def test_invalid_with_countermodel():
    x = T.var("x")
    result = check_valid(T.ult(x, T.const(10)))
    assert not result.valid
    assert result.model["x"] >= 10


def test_add_commutes_valid():
    x, y = T.var("x"), T.var("y")
    prove(T.eq(T.add(x, y), T.add(y, x)))


def test_sub_add_cancel_valid():
    x, y = T.var("x"), T.var("y")
    prove(T.eq(T.sub(T.add(x, y), y), x))


def test_and_mask_bound():
    x = T.var("x")
    prove(T.ult(T.band(x, T.const(0xFF)), T.const(0x100)))


def test_xor_swap_identity():
    x, y = T.var("x"), T.var("y")
    a = T.bxor(x, y)
    b = T.bxor(a, y)  # == x
    prove(T.eq(b, x))


def test_mul_by_two_is_shift():
    x = T.var("x", 8)
    prove(T.eq(T.mul(x, T.const(2, 8)), T.shl(x, T.const(1, 8))))


def test_udiv_rem_decomposition_6bit():
    # 6-bit keeps the restoring-divider + multiplier SAT instance small
    # enough for the pure-Python CDCL while exercising the same encoding.
    x, y = T.var("x", 6), T.var("y", 6)
    q = T.bv_binop("udiv", x, y)
    r = T.bv_binop("urem", x, y)
    recomposed = T.add(T.mul(q, y), r)
    prove(T.eq(recomposed, x), hypotheses=[T.not_(T.eq(y, T.const(0, 6)))])


def test_udiv_rem_agree_with_python_exhaustive_5bit():
    # Exhaustive ground-truth check of the divider encoding at width 5.
    for a in range(0, 32, 3):
        for b in range(0, 32, 5):
            q = T.bv_binop("udiv", T.const(a, 5), T.const(b, 5))
            r = T.bv_binop("urem", T.const(a, 5), T.const(b, 5))
            if b == 0:
                assert q.value == 31 and r.value == a
            else:
                assert q.value == a // b and r.value == a % b


def test_hypotheses_used():
    x = T.var("x")
    goal = T.ult(x, T.const(0x100))
    assert not check_valid(goal).valid
    prove(goal, hypotheses=[T.ult(x, T.const(0x80))])


def test_contradictory_hypotheses_prove_anything():
    x = T.var("x")
    prove(T.eq(x, T.const(42)),
          hypotheses=[T.ult(x, T.const(1)), T.ult(T.const(2), x)])


def test_prove_raises_on_falsifiable():
    x = T.var("x")
    with pytest.raises(ProofFailure) as exc_info:
        prove(T.eq(x, T.const(0)))
    assert exc_info.value.model["x"] != 0


def test_is_satisfiable():
    x = T.var("x")
    sat = is_satisfiable(T.and_(T.ult(T.const(3), x), T.ult(x, T.const(5))))
    assert sat.valid
    assert sat.model["x"] == 4
    unsat = is_satisfiable(T.and_(T.ult(x, T.const(3)), T.ult(T.const(5), x)))
    assert not unsat.valid


def test_signed_comparison_blast():
    x = T.var("x")
    # x <s 0  <->  top bit set
    goal_lr = T.implies(T.slt(x, T.const(0)),
                        T.eq(T.band(x, T.const(0x80000000)), T.const(0x80000000)))
    goal_rl = T.implies(T.eq(T.band(x, T.const(0x80000000)), T.const(0x80000000)),
                        T.slt(x, T.const(0)))
    prove(goal_lr)
    prove(goal_rl)


def test_variable_shift_blast():
    n = T.var("n", 8)
    # (x << n) >> n keeps the low bits if no overflow: check a weaker fact,
    # shifting by more than width-1 bits of a masked amount stays defined.
    goal = T.eq(T.lshr(T.shl(T.const(1, 8), n), n), T.const(1, 8))
    # Not valid for n >= 8 (mod semantics) -- restrict:
    prove(goal, hypotheses=[T.ult(n, T.const(8, 8))])



# -- the witness tier -----------------------------------------------------------


def _tiers():
    from repro.logic.solver import tier_counts

    return tier_counts()


def _random_formula(rng, names):
    def word(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.7:
                return T.var(rng.choice(names), 8)
            return T.const(rng.randrange(256), 8)
        op = rng.choice(["add", "sub", "mul", "band", "bor", "bxor"])
        return T.bv_binop(op, word(depth - 1), word(depth - 1))

    atoms = []
    for _ in range(rng.randint(1, 4)):
        compare = rng.choice([T.eq, T.ult, T.ule, T.slt])
        atom = compare(word(2), word(2))
        atoms.append(atom if rng.random() < 0.7 else T.not_(atom))
    return T.and_(*atoms) if rng.random() < 0.7 else T.or_(*atoms)


def _random_candidate(rng, names):
    # Partial models, sometimes binding a variable the formula lacks.
    pool = names + ["unrelated"]
    return {name: rng.randrange(256)
            for name in rng.sample(pool, rng.randint(0, len(pool)))}


def test_witnesses_never_change_the_verdict():
    rng = random.Random(19)
    names = ["a", "b", "c"]
    witness_settled = 0
    for _ in range(200):
        formula = _random_formula(rng, names)
        candidates = [_random_candidate(rng, names)
                      for _ in range(rng.randint(1, 4))]
        before = _tiers()["witness"]
        with_witnesses = is_satisfiable(formula, witnesses=candidates)
        witness_settled += _tiers()["witness"] - before
        assert with_witnesses.valid == is_satisfiable(formula).valid
        if with_witnesses.valid:
            # Every returned model binds the formula's variables and
            # makes it true -- so no falsifying candidate is returned.
            assert T.evaluate(formula, with_witnesses.model)
            for candidate in candidates:
                for fill in (0, 1, 0xFF):
                    completed = dict(candidate)
                    for name in names:
                        completed.setdefault(name, fill)
                    if not T.evaluate(formula, completed):
                        assert with_witnesses.model != completed
    assert witness_settled > 50


def test_a_falsifying_witness_is_never_returned():
    x = T.var("x")
    before = _tiers()
    result = is_satisfiable(T.ult(x, T.const(5)),
                            witnesses=[{"x": 7}, {"x": 200, "y": 1}])
    assert result.valid and result.model["x"] < 5
    after = _tiers()
    assert after["witness"] == before["witness"]
    assert after["sat"] == before["sat"] + 1


def test_a_witness_is_completed_with_zeros_then_ones_then_all_ones():
    x, y, z = T.var("x"), T.var("y"), T.var("z", 8)
    before = _tiers()
    zeros = is_satisfiable(T.eq(x, T.const(7)), witnesses=[{"x": 7}])
    assert zeros.model == {"x": 7}
    ones = is_satisfiable(T.and_(T.eq(x, T.const(7)), T.eq(y, T.const(1))),
                          witnesses=[{"x": 7}])
    assert ones.model == {"x": 7, "y": 1}
    all_ones = is_satisfiable(
        T.and_(T.eq(x, T.const(7)), T.eq(y, T.const(0xFFFFFFFF)),
               T.eq(z, T.const(0xFF, 8))),
        witnesses=[{"x": 7}])
    assert all_ones.model == {"x": 7, "y": 0xFFFFFFFF, "z": 0xFF}
    after = _tiers()
    assert after["witness"] == before["witness"] + 3
    assert after["sat"] == before["sat"]  # no bit-blasting at all


def test_a_witness_answer_is_cached_after_the_lookup():
    from repro import obs
    from repro.logic.cache import ProofCache
    from repro.logic.solver import cached

    x, y = T.var("x"), T.var("y")
    formula = T.ult(x, y)
    hits = obs.counter("cache.hits")
    with cached(ProofCache()) as cache:
        before, hits0 = _tiers()["witness"], hits.value
        first = is_satisfiable(formula, witnesses=[{"x": 1, "y": 2}])
        assert first.model == {"x": 1, "y": 2} and len(cache) == 1
        # The second query is a cache hit, not a second witness check,
        # and replays the stored witness.
        second = is_satisfiable(formula, witnesses=[{"x": 1, "y": 2}])
        assert second.model == {"x": 1, "y": 2}
        assert _tiers()["witness"] == before + 1
        assert hits.value == hits0 + 1


# -- differential testing: solver vs direct evaluation ------------------------

@st.composite
def term_pairs(draw):
    """Random 8-bit term and a random model for its variables."""
    names = ["a", "b", "c"]
    model = {n: draw(st.integers(0, 255)) for n in names}

    def gen(depth):
        if depth == 0:
            choice = draw(st.integers(0, 1))
            if choice == 0:
                return T.const(draw(st.integers(0, 255)), 8)
            return T.var(draw(st.sampled_from(names)), 8)
        op = draw(st.sampled_from(["add", "sub", "mul", "band", "bor", "bxor"]))
        return T.bv_binop(op, gen(depth - 1), gen(depth - 1))

    return gen(draw(st.integers(1, 3))), model


@settings(max_examples=40, deadline=None)
@given(term_pairs())
def test_blasted_semantics_matches_evaluation(pair):
    term, model = pair
    expected = T.evaluate(term, model)
    # "term == expected under model bindings" must be valid.
    bindings = [T.eq(T.var(n, 8), T.const(v, 8)) for n, v in model.items()]
    prove(T.eq(term, T.const(expected, 8)), hypotheses=bindings)
    # and "term == expected+1" must be refutable
    wrong = (expected + 1) & 0xFF
    result = check_valid(T.eq(term, T.const(wrong, 8)), hypotheses=bindings)
    assert not result.valid


# -- intervals ----------------------------------------------------------------

def test_interval_const_and_var():
    seven = abstract(T.const(7))
    assert (seven.lo, seven.hi) == (7, 7)
    byte = abstract(T.var("x", 8))
    assert (byte.lo, byte.hi) == (0, 255)


def test_interval_band_bound():
    x = T.var("x")
    assert abstract(T.band(x, T.const(0xFF))).hi <= 0xFF


def test_interval_decides_cheap_vcs():
    x = T.var("x")
    masked = T.band(x, T.const(0xF))
    assert decide_bool(T.ult(masked, T.const(0x10))) is True
    assert decide_bool(T.ult(T.const(0x10), masked)) is False


def test_interval_undecided_returns_none():
    x = T.var("x")
    assert decide_bool(T.ult(x, T.const(5))) is None


def test_urem_by_zero_is_the_dividend():
    # RISC-V defines remu(x, 0) = x, so x %u y can be all-ones; the
    # interval tier must not bound it by y - 1.
    x, y = T.var("x"), T.var("y")
    result = check_valid(T.ult(T.bv_binop("urem", x, y), T.const(0xFFFFFFFF)))
    assert not result.valid
    assert result.model == {"x": 0xFFFFFFFF, "y": 0}
