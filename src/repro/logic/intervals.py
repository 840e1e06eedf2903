"""Unsigned interval and known-bits analysis over terms.

A fast incomplete procedure used as a filter in front of the SAT solver:
compute a conservative unsigned range ``[lo, hi]`` and a known-bits mask
for every bitvector term, then try to refute or prove boolean terms from
those abstractions. Sound for refutation ("definitely false" /
"definitely true"); returns ``None`` when undecided.

Two cooperating lattices:

* **intervals** (`bv_range`): unsigned ``[lo, hi]`` over-approximations --
  precise for arithmetic (``add``/``sub``/``mul``/``udiv``) when nothing
  wraps;
* **known bits** (`KnownBits`, `bv_bits`): per-bit certainty (mask of
  known positions + their values) -- precise for the bitwise and shift
  operators where intervals lose everything.

`bv_range` consults the bit lattice for ``band``/``bor``/``bxor``/
``shl``/``lshr``/``ashr`` so e.g. ``x & 0xF0`` has range ``[0, 0xF0]``
and ``y << 2`` is known 4-aligned. The same lattice is shared by the
static analyzer (`repro.analysis`), which is why it lives here in the
dependency-free logic layer.

Both analyses accept environments pre-seeding facts for subterms (e.g.
mined from symbolic-execution path conditions -- see
`repro.analysis.prescreen`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import terms as T

Range = Tuple[int, int]


def _full(width: int) -> Range:
    return (0, (1 << width) - 1)


class KnownBits:
    """Per-bit knowledge about a ``width``-bit unsigned value.

    ``mask`` has a 1 at every position whose bit is known; ``value``
    carries the known bits (``value & ~mask == 0``). The lattice order is
    by information content: top knows nothing (``mask == 0``).
    """

    __slots__ = ("width", "mask", "value")

    def __init__(self, width: int, mask: int, value: int):
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


BitsEnv = Dict[T.Term, KnownBits]


def bv_bits(t: T.Term, env: Optional[Dict[T.Term, Range]] = None,
            bits_env: Optional[BitsEnv] = None,
            _cache: Optional[dict] = None) -> KnownBits:
    """A sound known-bits over-approximation of the values of ``t``.

    ``bits_env`` may pre-seed bit facts for subterms; ``env`` (ranges, as
    for `bv_range`) is consulted as a secondary source via
    `KnownBits.from_range`.
    """
    if _cache is None:
        _cache = {}
    if t in _cache:
        return _cache[t]
    width = t.width
    seed = None
    if bits_env and t in bits_env:
        seed = bits_env[t]
    op = t.op
    if op == "const":
        r = KnownBits.from_const(t.value, width)
    elif op == "var":
        r = KnownBits.top(width)
    elif op == "band":
        r = bv_bits(t.args[0], env, bits_env, _cache).band(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op == "bor":
        r = bv_bits(t.args[0], env, bits_env, _cache).bor(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op == "bxor":
        r = bv_bits(t.args[0], env, bits_env, _cache).bxor(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op in ("shl", "lshr", "ashr") and t.args[1].is_const():
        a = bv_bits(t.args[0], env, bits_env, _cache)
        amount = t.args[1].value
        r = getattr(a, op)(amount)
    elif op == "add":
        r = bv_bits(t.args[0], env, bits_env, _cache).add(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op == "sub":
        r = bv_bits(t.args[0], env, bits_env, _cache).sub(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op == "mul":
        r = bv_bits(t.args[0], env, bits_env, _cache).mul(
            bv_bits(t.args[1], env, bits_env, _cache))
    elif op == "zext":
        r = bv_bits(t.args[0], env, bits_env, _cache).zext(width)
    elif op == "extract":
        hi, lo = t.attr
        r = bv_bits(t.args[0], env, bits_env, _cache).extract(hi, lo)
    elif op == "concat":
        high, low = t.args
        r = bv_bits(high, env, bits_env, _cache).concat(
            bv_bits(low, env, bits_env, _cache))
    elif op == "ite":
        r = bv_bits(t.args[1], env, bits_env, _cache).join(
            bv_bits(t.args[2], env, bits_env, _cache))
    else:
        r = KnownBits.top(width)
    if seed is not None:
        r = r.meet(seed)
    if env and t in env:
        lo, hi = env[t]
        r = r.meet(KnownBits.from_range(lo, hi, width))
    _cache[t] = r
    return r


def bv_range(t: T.Term, env: Optional[Dict[T.Term, Range]] = None,
             _cache: Optional[dict] = None,
             bits_env: Optional[BitsEnv] = None,
             _bits_cache: Optional[dict] = None) -> Range:
    """A sound unsigned over-approximation of the values of ``t``.

    ``env`` may pre-seed ranges for subterms (e.g. from path conditions);
    ``bits_env`` likewise for known-bits facts. For the bitwise and shift
    operators the result is the intersection of interval reasoning with
    the bounds implied by `bv_bits`.
    """
    if _cache is None:
        _cache = {}
    if env and t in env:
        return env[t]
    if t in _cache:
        return _cache[t]
    if _bits_cache is None:
        _bits_cache = {}

    def rec(s: T.Term) -> Range:
        return bv_range(s, env, _cache, bits_env, _bits_cache)

    width = t.width
    m = (1 << width) - 1
    op = t.op
    bits: Optional[KnownBits] = None
    if op == "const":
        r = (t.value, t.value)
    elif op == "var":
        r = _full(width)
    elif op == "add":
        (alo, ahi) = rec(t.args[0])
        (blo, bhi) = rec(t.args[1])
        if ahi + bhi <= m:
            r = (alo + blo, ahi + bhi)
        else:
            r = _full(width)
    elif op == "sub":
        (alo, ahi) = rec(t.args[0])
        (blo, bhi) = rec(t.args[1])
        if alo - bhi >= 0:
            r = (alo - bhi, ahi - blo)
        else:
            r = _full(width)
    elif op == "mul":
        (alo, ahi) = rec(t.args[0])
        (blo, bhi) = rec(t.args[1])
        if ahi * bhi <= m:
            r = (alo * blo, ahi * bhi)
        else:
            r = _full(width)
    elif op == "band":
        (_, ahi) = rec(t.args[0])
        (_, bhi) = rec(t.args[1])
        r = (0, min(ahi, bhi))
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "bor":
        (alo, ahi) = rec(t.args[0])
        (blo, bhi) = rec(t.args[1])
        nbits = max(ahi.bit_length(), bhi.bit_length())
        r = (max(alo, blo), min(m, (1 << nbits) - 1))
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "bxor":
        (_, ahi) = rec(t.args[0])
        (_, bhi) = rec(t.args[1])
        nbits = max(ahi.bit_length(), bhi.bit_length())
        r = (0, min(m, (1 << nbits) - 1))
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "shl":
        if t.args[1].is_const():
            amount = t.args[1].value % width
            (alo, ahi) = rec(t.args[0])
            if (ahi << amount) <= m:
                r = (alo << amount, ahi << amount)
            else:
                r = _full(width)
        else:
            r = _full(width)
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "lshr":
        (alo, ahi) = rec(t.args[0])
        if t.args[1].is_const():
            amount = t.args[1].value % width
            r = (alo >> amount, ahi >> amount)
        else:
            r = (0, ahi)
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "ashr":
        r = _full(width)
        bits = bv_bits(t, env, bits_env, _bits_cache)
    elif op == "extract":
        hi, lo = t.attr
        (_, ahi) = rec(t.args[0])
        sub_m = (1 << (hi - lo + 1)) - 1
        r = (0, min(sub_m, ahi >> lo) if lo == 0 else sub_m)
    elif op == "zext":
        r = rec(t.args[0])
    elif op == "concat":
        high, low = t.args
        (hlo, hhi) = rec(high)
        (llo, lhi) = rec(low)
        r = ((hlo << low.width) + llo, (hhi << low.width) + lhi)
    elif op == "ite":
        (alo, ahi) = rec(t.args[1])
        (blo, bhi) = rec(t.args[2])
        r = (min(alo, blo), max(ahi, bhi))
    elif op == "udiv":
        (alo, ahi) = rec(t.args[0])
        (blo, _) = rec(t.args[1])
        if blo >= 1:
            r = (0, ahi // blo)
        else:
            r = _full(width)  # division by zero gives all-ones
    elif op == "urem":
        (_, ahi) = rec(t.args[0])
        (_, bhi) = rec(t.args[1])
        r = (0, min(ahi, max(0, bhi - 1)) if bhi > 0 else ahi)
    else:
        r = _full(width)
    if bits is not None and bits.mask:
        # Intersect with the bounds the known bits imply. An empty
        # intersection can only arise from contradictory seeded facts
        # (an infeasible path); any sound answer is acceptable there.
        r = (max(r[0], bits.umin()), min(r[1], bits.umax()))
        if r[0] > r[1]:
            r = (r[0], r[0])
    _cache[t] = r
    return r


def decide_bool(t: T.Term, env: Optional[Dict[T.Term, Range]] = None,
                _cache: Optional[dict] = None,
                bits_env: Optional[BitsEnv] = None,
                _bits_cache: Optional[dict] = None) -> Optional[bool]:
    """Try to decide a boolean term from interval/known-bits information
    alone."""
    if _cache is None:
        _cache = {}
    if _bits_cache is None:
        _bits_cache = {}

    def rng(s: T.Term) -> Range:
        return bv_range(s, env, _cache, bits_env, _bits_cache)

    op = t.op
    if op == "const":
        return bool(t.attr)
    if op == "ult":
        (alo, ahi) = rng(t.args[0])
        (blo, bhi) = rng(t.args[1])
        if ahi < blo:
            return True
        if alo >= bhi:
            return False
        return None
    if op == "eq":
        a, b = t.args
        (alo, ahi) = rng(a)
        (blo, bhi) = rng(b)
        if ahi < blo or bhi < alo:
            return False
        if alo == ahi == blo == bhi:
            return True
        if isinstance(a.sort, tuple):
            abits = bv_bits(a, env, bits_env, _bits_cache)
            bbits = bv_bits(b, env, bits_env, _bits_cache)
            if abits.conflicts(bbits):
                return False
        return None
    if op == "not":
        inner = decide_bool(t.args[0], env, _cache, bits_env, _bits_cache)
        return None if inner is None else (not inner)
    if op == "and":
        any_unknown = False
        for arg in t.args:
            d = decide_bool(arg, env, _cache, bits_env, _bits_cache)
            if d is False:
                return False
            if d is None:
                any_unknown = True
        return None if any_unknown else True
    if op == "or":
        any_unknown = False
        for arg in t.args:
            d = decide_bool(arg, env, _cache, bits_env, _bits_cache)
            if d is True:
                return True
            if d is None:
                any_unknown = True
        return None if any_unknown else False
    return None
