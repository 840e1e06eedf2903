"""Unsigned interval ∧ known-bits abstraction of bitvector words.

The one lattice the program logic and the static analyzers share, kept
in the dependency-free logic layer:

* `KnownBits` -- per-bit certainty (a mask of known positions and their
  values); precise for the bitwise and shift operators, where intervals
  lose everything;
* `AbstractWord` -- a ``width``-bit unsigned range ``[lo, hi]`` meeting
  a `KnownBits`; each half tightens the other, so e.g. ``x & 0xF0`` lies
  in ``[0, 0xF0]`` and ``y << 2`` is known 4-aligned;
* `word_binop` -- the transfer function of every binary operator, keyed
  by the term operator names of `repro.logic.terms` and matching their
  concrete semantics (shift amounts mod the width, RISC-V division by
  zero: ``udiv(a, 0)`` is all-ones and ``urem(a, 0) = a``);
* `abstract` -- one memoized walk over a term DAG. An environment may
  hold facts about subterms (e.g. mined from a symbolic-execution path
  condition by `repro.analysis.prescreen`); the walk meets each fact
  with the value it computes;
* `decide_bool` -- decides a boolean term from `abstract` alone: the
  solver's cheap filter in front of SAT. Sound ("definitely true" /
  "definitely false"); returns ``None`` when undecided.

The analyzers in `repro.analysis` run `AbstractWord` and `word_binop`
over Bedrock2 locals and machine registers, so one set of soundness
tests covers the verifier and every analyzer.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from . import terms as T

WIDTH = 32
MASK = (1 << WIDTH) - 1


class KnownBits:
    """Per-bit knowledge about a ``width``-bit unsigned value.

    ``mask`` has a 1 at every position whose bit is known; ``value``
    carries the known bits (``value & ~mask == 0``). The lattice order is
    by information content: top knows nothing (``mask == 0``).
    """

    __slots__ = ("width", "mask", "value")

    def __init__(self, width: int, mask: int, value: int) -> None:
        full = (1 << width) - 1
        self.width = width
        self.mask = mask & full
        self.value = value & self.mask

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top(width: int) -> "KnownBits":
        return KnownBits(width, 0, 0)

    @staticmethod
    def from_const(value: int, width: int) -> "KnownBits":
        full = (1 << width) - 1
        return KnownBits(width, full, value & full)

    @staticmethod
    def from_range(lo: int, hi: int, width: int) -> "KnownBits":
        """Bits shared by every value in ``[lo, hi]``: the common prefix
        above the highest bit where ``lo`` and ``hi`` differ."""
        if lo > hi:  # malformed (contradictory env); know nothing
            return KnownBits.top(width)
        diff = (lo ^ hi).bit_length()
        full = (1 << width) - 1
        mask = full & ~((1 << diff) - 1)
        return KnownBits(width, mask, lo)

    # -- queries -------------------------------------------------------------

    def is_const(self) -> bool:
        return self.mask == (1 << self.width) - 1

    def umin(self) -> int:
        """Smallest value consistent with the known bits."""
        return self.value

    def umax(self) -> int:
        """Largest value consistent with the known bits."""
        return self.value | (((1 << self.width) - 1) & ~self.mask)

    def known_zeros(self) -> int:
        return self.mask & ~self.value

    def known_ones(self) -> int:
        return self.mask & self.value

    def conflicts(self, other: "KnownBits") -> bool:
        """True when no value satisfies both (some bit known with
        different values) -- decides disequality."""
        common = self.mask & other.mask
        return bool((self.value ^ other.value) & common)

    def __repr__(self) -> str:
        return "KnownBits(w=%d, mask=0x%x, value=0x%x)" % (
            self.width, self.mask, self.value)

    # -- lattice -------------------------------------------------------------

    def join(self, other: "KnownBits") -> "KnownBits":
        """Least upper bound: keep bits known (and equal) on both sides."""
        mask = self.mask & other.mask & ~(self.value ^ other.value)
        return KnownBits(self.width, mask, self.value & mask)

    def meet(self, other: "KnownBits") -> "KnownBits":
        """Combine two sound facts about the same value."""
        return KnownBits(self.width, self.mask | other.mask,
                         self.value | other.value)

    # -- transfer functions --------------------------------------------------

    def band(self, other: "KnownBits") -> "KnownBits":
        ones = self.known_ones() & other.known_ones()
        zeros = self.known_zeros() | other.known_zeros()
        return KnownBits(self.width, ones | zeros, ones)

    def bor(self, other: "KnownBits") -> "KnownBits":
        ones = self.known_ones() | other.known_ones()
        zeros = self.known_zeros() & other.known_zeros()
        return KnownBits(self.width, ones | zeros, ones)

    def bxor(self, other: "KnownBits") -> "KnownBits":
        mask = self.mask & other.mask
        return KnownBits(self.width, mask, self.value ^ other.value)

    def bnot(self) -> "KnownBits":
        full = (1 << self.width) - 1
        return KnownBits(self.width, self.mask, ~self.value & full)

    def shl(self, amount: int) -> "KnownBits":
        amount %= self.width
        low = (1 << amount) - 1  # shifted-in zeros are known
        return KnownBits(self.width, (self.mask << amount) | low,
                         self.value << amount)

    def lshr(self, amount: int) -> "KnownBits":
        amount %= self.width
        full = (1 << self.width) - 1
        high = (full >> (self.width - amount)) << (self.width - amount) \
            if amount else 0
        return KnownBits(self.width, (self.mask >> amount) | high,
                         self.value >> amount)

    def ashr(self, amount: int) -> "KnownBits":
        amount %= self.width
        if amount == 0:
            return self
        sign = 1 << (self.width - 1)
        low_w = self.width - amount
        low_mask = (self.mask >> amount) & ((1 << low_w) - 1)
        low_value = (self.value >> amount) & low_mask
        high = ((1 << amount) - 1) << low_w
        if self.mask & sign:  # sign bit known: copies are known too
            mask = low_mask | high
            value = low_value | (high if self.value & sign else 0)
        else:
            mask, value = low_mask, low_value
        return KnownBits(self.width, mask, value)

    def add(self, other: "KnownBits", carry_in: int = 0) -> "KnownBits":
        """Result bits are known from the LSB up to the first position
        where an operand bit is unknown: below it every carry is known,
        so those bits are the low bits of the sum of the known parts."""
        both = self.mask & other.mask
        low = ((both + 1) & ~both) - 1  # the run of trailing ones
        return KnownBits(self.width, low,
                         (self.value & low) + (other.value & low) + carry_in)

    def sub(self, other: "KnownBits") -> "KnownBits":
        return self.add(other.bnot(), carry_in=1)

    def mul(self, other: "KnownBits") -> "KnownBits":
        """Only trailing zeros survive: a = a'·2^i, b = b'·2^j means a·b
        is 2^(i+j)-aligned."""
        def trailing_known_zeros(kb: "KnownBits") -> int:
            n = 0
            while n < kb.width and (kb.mask >> n) & 1 and not (kb.value >> n) & 1:
                n += 1
            return n

        if self.is_const() and self.value == 0:
            return self
        if other.is_const() and other.value == 0:
            return other
        tz = trailing_known_zeros(self) + trailing_known_zeros(other)
        tz = min(tz, self.width)
        return KnownBits(self.width, (1 << tz) - 1, 0)

    def zext(self, width: int) -> "KnownBits":
        full = (1 << width) - 1
        high = full & ~((1 << self.width) - 1)
        return KnownBits(width, self.mask | high, self.value)

    def extract(self, hi: int, lo: int) -> "KnownBits":
        width = hi - lo + 1
        return KnownBits(width, self.mask >> lo, self.value >> lo)

    def concat(self, low: "KnownBits") -> "KnownBits":
        """``self`` above ``low``."""
        return KnownBits(self.width + low.width,
                         (self.mask << low.width) | low.mask,
                         (self.value << low.width) | low.value)


class AbstractWord:
    """A set of ``width``-bit words: unsigned range [lo, hi] ∩ known bits.

    The width is ``bits.width``; the ``width`` argument only matters when
    no ``bits`` are given.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: Optional[KnownBits] = None,
                 width: int = WIDTH) -> None:
        # Tighten the range by the bits and vice versa; a contradictory
        # pair can only arise on an unreachable path, where any value is
        # a sound answer. This is `KnownBits.umin`/`umax`, then a `meet`
        # with `KnownBits.from_range(lo, hi)`, computed inline (with
        # comparisons, not min/max calls) so each word builds one
        # `KnownBits`: this constructor is the binary linter's hot path.
        if bits is None:
            mask = value = 0
        else:
            mask, value, width = bits.mask, bits.value, bits.width
        full = (1 << width) - 1
        if lo < value:
            lo = value
        umax = value | (full & ~mask)
        if hi > umax:
            hi = umax
        if lo > hi:
            hi = lo
        self.lo = lo
        self.hi = hi
        prefix = full & ~((1 << (lo ^ hi).bit_length()) - 1)
        self.bits = KnownBits(width, mask | prefix, value | (lo & prefix))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top(width: int = WIDTH) -> "AbstractWord":
        return AbstractWord(0, (1 << width) - 1, None, width)

    @staticmethod
    def const(value: int, width: int = WIDTH) -> "AbstractWord":
        value &= (1 << width) - 1
        # A one-value range knows every bit.
        return AbstractWord(value, value, None, width)

    @staticmethod
    def boolean() -> "AbstractWord":
        return AbstractWord(0, 1)

    # -- queries -------------------------------------------------------------

    def is_const(self) -> bool:
        return self.lo == self.hi

    def as_const(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AbstractWord) and self.lo == other.lo
                and self.hi == other.hi and self.bits.mask == other.bits.mask
                and self.bits.value == other.bits.value)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.bits.mask, self.bits.value))

    def __repr__(self) -> str:
        return "AbstractWord[0x%x, 0x%x]" % (self.lo, self.hi)

    # -- lattice -------------------------------------------------------------

    def join(self, other: "AbstractWord") -> "AbstractWord":
        return AbstractWord(min(self.lo, other.lo), max(self.hi, other.hi),
                            self.bits.join(other.bits))

    def widen(self, other: "AbstractWord") -> "AbstractWord":
        lo = self.lo if other.lo >= self.lo else 0
        hi = self.hi if other.hi <= self.hi else (1 << self.bits.width) - 1
        return AbstractWord(lo, hi, self.bits.join(other.bits))

    def meet(self, other: "AbstractWord") -> "AbstractWord":
        """Combine two sound facts about the same value."""
        return AbstractWord(max(self.lo, other.lo), min(self.hi, other.hi),
                            self.bits.meet(other.bits))


def word_binop(op: str, a: AbstractWord, b: AbstractWord) -> AbstractWord:
    """Abstract transfer of the binary term operator ``op`` (see
    `repro.logic.terms` for the concrete meaning each case
    over-approximates). Comparisons (``ult``, ``slt``, ``eq``) give a
    0/1 word, as Bedrock2's do. ``mulhuu`` (the high word of the
    unsigned product) has no term operator of its own: terms spell it
    ``extract(mul(zext a, zext b))``. Any other operator gives top."""
    width = a.bits.width
    full = (1 << width) - 1
    if op == "add":
        bits = a.bits.add(b.bits)
        if a.hi + b.hi <= full:
            return AbstractWord(a.lo + b.lo, a.hi + b.hi, bits)
        return AbstractWord(0, full, bits)
    if op == "sub":
        bits = a.bits.sub(b.bits)
        if a.lo - b.hi >= 0:
            return AbstractWord(a.lo - b.hi, a.hi - b.lo, bits)
        return AbstractWord(0, full, bits)
    if op == "mul":
        bits = a.bits.mul(b.bits)
        if a.hi * b.hi <= full:
            return AbstractWord(a.lo * b.lo, a.hi * b.hi, bits)
        return AbstractWord(0, full, bits)
    if op == "mulhuu":
        return AbstractWord((a.lo * b.lo) >> width, (a.hi * b.hi) >> width,
                            None, width)
    if op == "udiv":
        if b.lo >= 1:
            return AbstractWord(a.lo // b.hi, a.hi // b.lo, None, width)
        return AbstractWord.top(width)  # division by zero yields all-ones
    if op == "urem":
        if b.lo >= 1:
            return AbstractWord(0, min(a.hi, b.hi - 1), None, width)
        return AbstractWord(0, a.hi, None, width)  # urem(a, 0) = a
    if op == "band":
        return AbstractWord(0, min(a.hi, b.hi), a.bits.band(b.bits))
    if op == "bor":
        nbits = max(a.hi.bit_length(), b.hi.bit_length())
        return AbstractWord(max(a.lo, b.lo), min(full, (1 << nbits) - 1),
                            a.bits.bor(b.bits))
    if op == "bxor":
        nbits = max(a.hi.bit_length(), b.hi.bit_length())
        return AbstractWord(0, min(full, (1 << nbits) - 1),
                            a.bits.bxor(b.bits))
    if op in ("shl", "lshr", "ashr"):
        amount = b.as_const()
        if amount is None:
            if op == "lshr":
                return AbstractWord(0, a.hi, None, width)
            return AbstractWord.top(width)
        amount %= width
        if op == "shl":
            bits = a.bits.shl(amount)
            if a.hi << amount <= full:
                return AbstractWord(a.lo << amount, a.hi << amount, bits)
            return AbstractWord(0, full, bits)
        if op == "lshr":
            return AbstractWord(a.lo >> amount, a.hi >> amount,
                                a.bits.lshr(amount))
        return AbstractWord(0, full, a.bits.ashr(amount))
    if op == "ult":
        if a.hi < b.lo:
            return AbstractWord.const(1)
        if a.lo >= b.hi:
            return AbstractWord.const(0)
        return AbstractWord.boolean()
    if op == "slt":
        return AbstractWord.boolean()
    if op == "eq":
        if a.is_const() and b.is_const() and a.lo == b.lo:
            return AbstractWord.const(1)
        if a.hi < b.lo or b.hi < a.lo or a.bits.conflicts(b.bits):
            return AbstractWord.const(0)
        return AbstractWord.boolean()
    return AbstractWord.top(width)


def abstract(t: T.Term, env: Optional[Mapping[T.Term, AbstractWord]] = None,
             _memo: Optional[Dict[T.Term, AbstractWord]] = None
             ) -> AbstractWord:
    """A sound over-approximation of the values of the bitvector term
    ``t``. Each fact ``env`` holds about a subterm is met with the value
    computed for it. One visit per DAG node: calls that pass the same
    ``_memo`` share it."""
    if _memo is None:
        _memo = {}
    word = _memo.get(t)
    if word is not None:
        return word
    op = t.op
    args = t.args
    if op == "const":
        word = AbstractWord.const(t.value, t.width)
    elif op == "extract":
        hi, lo = t.attr
        inner = abstract(args[0], env, _memo)
        bits = inner.bits.extract(hi, lo)
        if inner.hi >> (hi + 1) == 0:  # no value has a bit above ``hi``
            word = AbstractWord(inner.lo >> lo, inner.hi >> lo, bits)
        else:
            word = AbstractWord(0, (1 << (hi - lo + 1)) - 1, bits)
    elif op == "zext":
        inner = abstract(args[0], env, _memo)
        word = AbstractWord(inner.lo, inner.hi, inner.bits.zext(t.width))
    elif op == "concat":
        high = abstract(args[0], env, _memo)
        low = abstract(args[1], env, _memo)
        shift = low.bits.width
        word = AbstractWord((high.lo << shift) + low.lo,
                            (high.hi << shift) + low.hi,
                            high.bits.concat(low.bits))
    elif op == "ite":
        word = abstract(args[1], env, _memo).join(
            abstract(args[2], env, _memo))
    elif len(args) == 2:
        word = word_binop(op, abstract(args[0], env, _memo),
                          abstract(args[1], env, _memo))
    else:  # var, sext
        word = AbstractWord.top(t.width)
    if env is not None:
        fact = env.get(t)
        if fact is not None:
            word = word.meet(fact)
    _memo[t] = word
    return word


def decide_bool(t: T.Term, env: Optional[Mapping[T.Term, AbstractWord]] = None,
                _memo: Optional[Dict[T.Term, AbstractWord]] = None
                ) -> Optional[bool]:
    """Try to decide the boolean term ``t`` from `abstract` alone."""
    if _memo is None:
        _memo = {}
    op = t.op
    if op == "const":
        return bool(t.attr)
    if op in ("ult", "eq"):
        a, b = t.args
        if not isinstance(a.sort, tuple):  # an equivalence of booleans
            return None
        value = word_binop(op, abstract(a, env, _memo),
                           abstract(b, env, _memo)).as_const()
        return None if value is None else bool(value)
    if op == "not":
        inner = decide_bool(t.args[0], env, _memo)
        return None if inner is None else (not inner)
    if op == "and":
        any_unknown = False
        for arg in t.args:
            d = decide_bool(arg, env, _memo)
            if d is False:
                return False
            if d is None:
                any_unknown = True
        return None if any_unknown else True
    if op == "or":
        any_unknown = False
        for arg in t.args:
            d = decide_bool(arg, env, _memo)
            if d is True:
                return True
            if d is None:
                any_unknown = True
        return None if any_unknown else False
    return None
