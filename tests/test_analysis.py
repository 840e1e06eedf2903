"""The static analyzer: seeded-defect fixtures are each caught with
their documented diagnostic code, shipped programs lint clean (the CI
gate), and the interval / known-bits lattices are sound against the
concrete word semantics."""

import random

import pytest

from repro.analysis import LintConfig, lint_program
from repro.analysis.dataflow import node_loc
from repro.analysis.domains import CsPairingSpec, _binop
from repro.analysis.lint import lint_function, render_json
from repro.bedrock2 import word as W
from repro.bedrock2.builder import (
    block,
    func,
    if_,
    interact,
    lit,
    load4,
    set_,
    skip,
    stackalloc,
    store4,
    var,
    while_,
)
from repro.bedrock2.extspec import MMIOSpec
from repro.logic import terms as T
from repro.logic.intervals import AbstractWord, KnownBits, abstract, decide_bool
from repro.platform.bus import MMIO_RANGES
from repro.sw import constants as C
from repro.sw.doorlock import doorlock_program
from repro.sw.program import lightbulb_program

CONFIG = LintConfig(
    mmio_ranges=MMIO_RANGES,
    ext_spec=MMIOSpec(MMIO_RANGES),
    cs_pairing=CsPairingSpec(addr=C.SPI_CSMODE_ADDR,
                             acquire=C.CSMODE_HOLD,
                             release=C.CSMODE_AUTO),
)

GPIO_REG = C.GPIO_OUTPUT_VAL_ADDR


def codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# Seeded defects: each fixture must be caught with its documented code.


def test_use_before_def_caught():
    fn = func("f", [], ["r"], set_("r", var("x") + 1))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A001"]
    assert "'x'" in diags[0].message


def test_unassigned_return_caught():
    fn = func("f", ["a"], ["r"], skip())
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A001"]
    assert "return" in diags[0].message


def test_assignment_on_one_branch_only_caught():
    fn = func("f", ["a"], ["r"],
              block(if_(var("a"), set_("x", 1)),
                    set_("r", var("x"))))
    assert "B2A001" in codes(lint_function(fn, CONFIG))


def test_dead_store_caught():
    fn = func("f", [], ["r"],
              block(set_("x", 1),       # overwritten before any read
                    set_("x", 2),
                    set_("r", var("x"))))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A002"]
    assert "'x'" in diags[0].message


def test_unreachable_branch_caught():
    # a & 0 is provably zero by known-bits, so the then-branch is dead.
    fn = func("f", ["a"], ["r"],
              block(if_(var("a") & 0, set_("r", 1), set_("r", 2))))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A003"]
    assert "then-branch" in diags[0].message


def test_unreachable_loop_body_caught():
    fn = func("f", ["a"], ["r"],
              block(set_("i", 0),
                    while_(var("i") & lit(0), set_("i", var("i") + 1)),
                    set_("r", 0)))
    diags = lint_function(fn, CONFIG)
    assert "B2A003" in codes(diags)


def test_while_true_is_not_flagged():
    # An intentionally-infinite server loop is idiomatic, not a defect.
    fn = func("f", [], [],
              while_(lit(1), interact([], "MMIOWRITE", lit(GPIO_REG),
                                      lit(0))))
    assert lint_function(fn, CONFIG) == []


def test_misaligned_store_caught():
    fn = func("f", ["v"], [], store4(lit(0x8000_0002), var("v")))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A004"]


def test_misaligned_symbolic_address_caught():
    # p is stackalloc'd (4-aligned); p + 2 has bit 1 known set.
    fn = func("f", ["v"], [],
              stackalloc("p", 8, store4(var("p") + 2, var("v"))))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A004"]


def test_mmio_range_store_caught():
    fn = func("f", ["v"], [], store4(lit(GPIO_REG), var("v")))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A005"]


def test_mmio_range_load_caught():
    fn = func("f", [], ["r"], set_("r", load4(lit(C.SPI_RXDATA_ADDR))))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A005"]


def test_unknown_action_caught():
    fn = func("f", [], [], interact([], "MMIOCLEAR", lit(GPIO_REG)))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A006"]
    assert "MMIOCLEAR" in diags[0].message


def test_wrong_arity_caught():
    # MMIOWRITE takes (addr, value) and returns nothing.
    fn = func("f", [], [], interact([], "MMIOWRITE", lit(GPIO_REG)))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A006"]
    assert "argument" in diags[0].message


def test_missing_bind_caught():
    # MMIOREAD returns one value; binding none loses it.
    fn = func("f", [], [], interact([], "MMIOREAD", lit(C.SPI_RXDATA_ADDR)))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A006"]


def test_non_mmio_external_address_caught():
    fn = func("f", [], [], interact([], "MMIOWRITE", lit(0x1000), lit(0)))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A006"]
    assert "outside" in diags[0].message


def test_cs_exit_while_held_caught():
    fn = func("f", [], [],
              interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                       lit(C.CSMODE_HOLD)))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A007"]
    assert "exit" in diags[0].message


def test_cs_double_acquire_caught():
    acquire = interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                       lit(C.CSMODE_HOLD))
    release = interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                       lit(C.CSMODE_AUTO))
    fn = func("f", ["a"], [],
              block(if_(var("a"), acquire, skip()),
                    interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                             lit(C.CSMODE_HOLD)),
                    release))
    diags = lint_function(fn, CONFIG)
    assert codes(diags) == ["B2A007"]
    assert "already held" in diags[0].message


def test_paired_acquire_release_is_clean():
    fn = func("f", [], [],
              block(interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                             lit(C.CSMODE_HOLD)),
                    interact([], "MMIOWRITE", lit(C.SPI_TXDATA_ADDR),
                             lit(0x55)),
                    interact([], "MMIOWRITE", lit(C.SPI_CSMODE_ADDR),
                             lit(C.CSMODE_AUTO))))
    assert lint_function(fn, CONFIG) == []


# ---------------------------------------------------------------------------
# Locations, suppression, rendering


def test_fixture_diagnostics_carry_source_locations():
    fn = func("f", [], ["r"], set_("r", var("x")))
    (diag,) = lint_function(fn, CONFIG)
    assert diag.loc is not None
    assert diag.loc[0].endswith("test_analysis.py")
    assert diag.render().startswith(diag.loc[0])


def test_builder_attaches_locations():
    stmt = set_("x", 1)
    loc = node_loc(stmt)
    assert loc is not None and loc[0].endswith("test_analysis.py")


def test_suppression_by_code_and_by_function():
    fn = func("f", [], ["r"], set_("r", var("x")))
    assert lint_function(fn, LintConfig(suppress=frozenset({"B2A001"}))) == []
    assert lint_function(
        fn, LintConfig(suppress=frozenset({("B2A001", "f")}))) == []
    assert lint_function(
        fn, LintConfig(suppress=frozenset({("B2A001", "g")}))) != []


def test_render_json_shape():
    import json

    fn = func("f", [], ["r"], set_("r", var("x")))
    doc = json.loads(render_json(lint_function(fn, CONFIG)))
    assert doc["count"] == 1
    (finding,) = doc["findings"]
    assert finding["code"] == "B2A001"
    assert finding["function"] == "f"
    assert finding["line"]


# ---------------------------------------------------------------------------
# Shipped programs lint clean (what CI enforces)


def test_lightbulb_program_lints_clean():
    assert lint_program(lightbulb_program(), CONFIG) == []


def test_doorlock_program_lints_clean():
    assert lint_program(doorlock_program(), CONFIG) == []


# ---------------------------------------------------------------------------
# AbstractWord soundness: every binop's abstract result contains the
# concrete result, for randomized inputs drawn from the abstract values.

_CONCRETE = {
    "add": W.add, "sub": W.sub, "mul": W.mul, "mulhuu": W.mulhuu,
    "divu": W.divu, "remu": W.remu, "and": W.and_, "or": W.or_,
    "xor": W.xor, "slu": W.sll, "sru": W.srl, "srs": W.sra,
    "ltu": W.ltu, "lts": W.lts, "eq": W.eq,
}


def _random_abstract(rng):
    """A random AbstractWord plus a concrete member of it."""
    kind = rng.randrange(3)
    if kind == 0:
        value = rng.randrange(1 << 32)
        return AbstractWord.const(value), value
    if kind == 1:
        lo = rng.randrange(1 << 32)
        hi = rng.randrange(lo, 1 << 32)
        value = rng.randrange(lo, hi + 1)
        return AbstractWord(lo, hi), value
    value = rng.randrange(1 << 32)
    mask = rng.randrange(1 << 32)
    return (AbstractWord(0, W.MASK, KnownBits(32, mask, value & mask)),
            value)


def test_abstract_binops_sound():
    rng = random.Random(1234)
    for _ in range(4000):
        op = rng.choice(sorted(_CONCRETE))
        a, x = _random_abstract(rng)
        b, y = _random_abstract(rng)
        if op in ("slu", "sru", "srs") and rng.random() < 0.8:
            amount = rng.randrange(32)
            b, y = AbstractWord.const(amount), amount
        result = _binop(op, a, b)
        concrete = _CONCRETE[op](x, y)
        assert result.lo <= concrete <= result.hi, (op, x, y)
        assert concrete & result.bits.mask == result.bits.value, (op, x, y)


def test_abstract_word_join_and_widen_contain_both():
    rng = random.Random(99)
    for _ in range(500):
        a, x = _random_abstract(rng)
        b, y = _random_abstract(rng)
        for combined in (a.join(b), a.widen(b)):
            for value in (x, y):
                assert combined.lo <= value <= combined.hi
                assert value & combined.bits.mask == combined.bits.value


# ---------------------------------------------------------------------------
# `abstract` soundness over term DAGs (exercises the sharpened
# and/or/xor/shift transfer functions and the env meet).

_TERM_OPS = [
    (T.add, W.add), (T.sub, W.sub), (T.mul, W.mul),
    (T.band, W.and_), (T.bor, W.or_), (T.bxor, W.xor),
]


def _random_term(rng, depth, concretes):
    """A random 32-bit term over vars x, y plus its concrete value."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            name = rng.choice(sorted(concretes))
            return T.var(name, 32), concretes[name]
        value = rng.randrange(1 << 32)
        return T.const(value, 32), value
    if rng.random() < 0.25:
        build, model = rng.choice([(T.shl, W.sll), (T.lshr, W.srl),
                                   (T.ashr, W.sra)])
        sub, x = _random_term(rng, depth - 1, concretes)
        amount = rng.randrange(32)
        return build(sub, T.const(amount, 32)), model(x, amount)
    build, model = rng.choice(_TERM_OPS)
    lhs, x = _random_term(rng, depth - 1, concretes)
    rhs, y = _random_term(rng, depth - 1, concretes)
    return build(lhs, rhs), model(x, y)


def test_abstract_sound_on_random_dags():
    rng = random.Random(4321)
    for _ in range(1500):
        x = rng.randrange(1 << 32)
        y = rng.randrange(1 << 32)
        lo = rng.randrange(x + 1)
        hi = rng.randrange(x, 1 << 32)
        env = {T.var("x", 32): AbstractWord(lo, hi)}
        term, concrete = _random_term(rng, 3, {"x": x, "y": y})
        word = abstract(term, env)
        assert word.lo <= concrete <= word.hi, (term, concrete)
        assert concrete & word.bits.mask == word.bits.value, (term, concrete)


#: Every binary operator `abstract` gives a transfer function.
_WALKED_OPS = ("add", "sub", "mul", "udiv", "urem", "band", "bor", "bxor",
               "shl", "lshr", "ashr")


@pytest.mark.parametrize("op", _WALKED_OPS)
def test_abstract_binop_sound_exhaustively_at_width_4(op):
    """Small widths make every corner reachable -- divisor 0, shift
    amounts past the width, wrap-around -- which random 32-bit inputs
    almost never draw: every concrete pair in random env ranges lands
    inside the abstract result."""
    rng = random.Random(op)
    x, y = T.var("x", 4), T.var("y", 4)
    term = T.bv_binop(op, x, y)
    for _ in range(300):
        xlo = rng.randrange(16)
        xhi = rng.randrange(xlo, 16)
        ylo = rng.randrange(16)
        yhi = rng.randrange(ylo, 16)
        env = {x: AbstractWord(xlo, xhi, None, 4),
               y: AbstractWord(ylo, yhi, None, 4)}
        word = abstract(term, env)
        for a in range(xlo, xhi + 1):
            for b in range(ylo, yhi + 1):
                value = T.evaluate(term, {"x": a, "y": b})
                assert word.lo <= value <= word.hi, (op, a, b, env)
                assert value & word.bits.mask == word.bits.value, \
                    (op, a, b, env)


def test_abstract_uses_known_bits_for_masks():
    # x & 7 is within [0, 7] whatever x is -- the precision the dead-code
    # and alignment checks rely on.
    x = T.var("x", 32)
    masked = abstract(T.band(x, T.const(7, 32)))
    assert (masked.lo, masked.hi) == (0, 7)
    assert abstract(T.bor(T.band(x, T.const(0xF0, 32)),
                          T.const(1, 32))).hi <= 0xF1
    top_byte = abstract(T.lshr(x, T.const(24, 32)))
    assert (top_byte.lo, top_byte.hi) == (0, 0xFF)
    assert abstract(T.shl(x, T.const(30, 32))).lo == 0


def test_decide_bool_with_env():
    x = T.var("x", 32)
    env = {x: AbstractWord(0, 9)}
    assert decide_bool(T.ult(x, T.const(10, 32)), env) is True
    assert decide_bool(T.ult(T.const(20, 32), x), env) is False
    assert decide_bool(T.eq(T.band(x, T.const(1, 32)),
                            T.const(2, 32))) is False
    assert decide_bool(T.ult(x, T.const(5, 32)), env) is None


def test_knownbits_from_range_and_conflicts():
    kb = KnownBits.from_range(0x100, 0x10F, 32)
    assert kb.mask & 0xFFFFFF00 == 0xFFFFFF00
    assert kb.value & 0xFFFFFF00 == 0x100
    assert KnownBits.from_const(3, 32).conflicts(KnownBits.from_const(5, 32))
    assert not KnownBits.top(32).conflicts(KnownBits.from_const(5, 32))


# ---------------------------------------------------------------------------
# The closed-form kernels against the bit-serial references they replaced.
# Equal results, not just sound ones: a less precise kernel is still sound.


def _ripple_add(a, b, carry_in=0):
    """Reference `KnownBits.add`: ripple the carry from the LSB up to the
    first position where an operand bit is unknown."""
    mask = value = 0
    carry = carry_in
    for i in range(a.width):
        bit = 1 << i
        if not (a.mask & bit and b.mask & bit):
            break
        s = ((a.value >> i) & 1) + ((b.value >> i) & 1) + carry
        if s & 1:
            value |= bit
        mask |= bit
        carry = s >> 1
    return mask, value


def _ripple_sub(a, b):
    return _ripple_add(a, b.bnot(), carry_in=1)


def _three_object_word(lo, hi, bits):
    """Reference `AbstractWord(lo, hi, bits)`: tighten by `umin`/`umax`,
    then meet with `KnownBits.from_range`."""
    if bits is None:
        bits = KnownBits.top(32)
    lo = max(lo, bits.umin())
    hi = min(hi, bits.umax())
    if lo > hi:
        hi = lo
    bits = bits.meet(KnownBits.from_range(lo, hi, 32))
    return lo, hi, bits.mask, bits.value


def _every_known_bits(width):
    for mask in range(1 << width):
        value = mask
        while True:  # every value whose bits lie inside mask
            yield KnownBits(width, mask, value)
            if not value:
                break
            value = (value - 1) & mask


def _random_known_bits(rng):
    """32-bit known bits, often with a long run of known low bits (a
    long carry chain) or fully known."""
    kind = rng.randrange(3)
    mask = rng.getrandbits(32)
    if kind == 1:
        mask |= (1 << rng.randrange(33)) - 1
    elif kind == 2:
        mask = W.MASK
    return KnownBits(32, mask, rng.getrandbits(32))


def test_known_bits_add_and_sub_equal_ripple_carry_exhaustively():
    for width in range(1, 6):
        universe = list(_every_known_bits(width))
        for a in universe:
            for b in universe:
                for carry in (0, 1):
                    r = a.add(b, carry)
                    assert (r.mask, r.value) == _ripple_add(a, b, carry)
                r = a.sub(b)
                assert (r.mask, r.value) == _ripple_sub(a, b)


def test_known_bits_add_and_sub_equal_ripple_carry_at_32_bits():
    rng = random.Random(2024)
    for _ in range(100_000):
        a, b = _random_known_bits(rng), _random_known_bits(rng)
        carry = rng.randrange(2)
        r = a.add(b, carry)
        assert (r.mask, r.value) == _ripple_add(a, b, carry), (a, b, carry)
        r = a.sub(b)
        assert (r.mask, r.value) == _ripple_sub(a, b), (a, b)


def test_abstract_word_equals_three_object_construction():
    rng = random.Random(77)
    for _ in range(50_000):
        bits = None if rng.random() < 0.2 else _random_known_bits(rng)
        if rng.random() < 0.5:
            # Any order: lo > hi, or a range the bits exclude, is a
            # contradictory pair.
            lo, hi = rng.getrandbits(32), rng.getrandbits(32)
        else:  # a narrow range near the bits' own bounds
            lo = bits.umin() if bits is not None else rng.getrandbits(32)
            lo = max(0, min(W.MASK, lo + rng.randrange(-64, 64)))
            hi = min(W.MASK, lo + rng.randrange(256))
        w = AbstractWord(lo, hi, bits)
        assert (w.lo, w.hi, w.bits.mask, w.bits.value) == \
            _three_object_word(lo, hi, bits), (lo, hi, bits)
        w = AbstractWord.const(lo)
        assert (w.lo, w.hi, w.bits.mask, w.bits.value) == \
            _three_object_word(lo, lo, KnownBits.from_const(lo, 32)), lo
