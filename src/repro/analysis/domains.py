"""Abstract domains for the Bedrock2 dataflow framework.

Three domains, each an `repro.analysis.dataflow.AbstractDomain`:

* `DefiniteAssignmentDomain` -- which locals are assigned on *every*
  path (join is intersection); powers the use-before-def check.
* `WordDomain` -- every local as an `AbstractWord`: an unsigned interval
  meeting a `repro.logic.intervals.KnownBits` mask, with transfer
  functions for all fifteen Bedrock2 binops matching the concrete
  semantics in `repro.bedrock2.word` (shift amounts mod 32, RISC-V
  division-by-zero). Powers unreachable-branch and misaligned/MMIO
  address checks, and is deliberately the same lattice the VC
  prescreener evaluates goals with.
* `ExtProtocolDomain` -- a finite-state may-analysis of external-call
  protocol position (chip-select acquire/release pairing); powers the
  call-order checks.

All domains understand both the Bedrock2 AST and FlatImp statements, so
either IR can be analyzed with the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from ..bedrock2.ast_ import (
    ELit,
    ELoad,
    EOp,
    EVar,
    Expr,
    SCall,
    SInteract,
    SSet,
    SStackalloc,
)
from ..compiler.flatimp import (
    FCall,
    FInteract,
    FLoad,
    FOp,
    FSetLit,
    FSetVar,
    FStackalloc,
)
from ..logic.intervals import KnownBits
from .dataflow import AbstractDomain

WIDTH = 32
MASK = (1 << WIDTH) - 1


# ---------------------------------------------------------------------------
# Definite assignment


class DefiniteAssignmentDomain(AbstractDomain[FrozenSet[str]]):
    """State: frozenset of locals assigned on every path so far."""

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a & b

    def transfer(self, stmt: object, state: FrozenSet[str]) -> FrozenSet[str]:
        if isinstance(stmt, SSet):
            return state | {stmt.name}
        if isinstance(stmt, SStackalloc):
            return state | {stmt.name}
        if isinstance(stmt, (SCall, SInteract, FCall, FInteract)):
            return state | frozenset(stmt.binds)
        if isinstance(stmt, (FSetLit, FSetVar, FOp, FLoad, FStackalloc)):
            return state | {stmt.dst}
        return state


# ---------------------------------------------------------------------------
# Words as intervals + known bits


class AbstractWord:
    """A set of 32-bit words: unsigned range [lo, hi] ∩ known-bits."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: Optional[KnownBits] = None):
        # Tighten the range by the bits and vice versa; a contradictory
        # pair can only arise on an unreachable path, where any value is
        # a sound answer. This is `KnownBits.umin`/`umax`, then a `meet`
        # with `KnownBits.from_range(lo, hi)`, computed inline so each
        # word builds one `KnownBits`.
        if bits is None:
            mask = value = 0
        else:
            mask, value = bits.mask, bits.value
        lo = max(lo, value)
        hi = min(hi, value | (MASK & ~mask))
        if lo > hi:
            hi = lo
        self.lo = lo
        self.hi = hi
        prefix = MASK & ~((1 << (lo ^ hi).bit_length()) - 1)
        self.bits = KnownBits(WIDTH, mask | prefix, value | (lo & prefix))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top() -> "AbstractWord":
        return AbstractWord(0, MASK)

    @staticmethod
    def const(value: int) -> "AbstractWord":
        value &= MASK
        return AbstractWord(value, value)  # a one-value range knows every bit

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
        hi = self.hi if other.hi <= self.hi else MASK
        return AbstractWord(lo, hi, self.bits.join(other.bits))


def _binop(op: str, a: AbstractWord, b: AbstractWord) -> AbstractWord:
    """Abstract transfer for a Bedrock2 binop (see `repro.bedrock2.word`
    for the concrete meaning each case over-approximates)."""
    if op == "add":
        bits = a.bits.add(b.bits)
        if a.hi + b.hi <= MASK:
            return AbstractWord(a.lo + b.lo, a.hi + b.hi, bits)
        return AbstractWord(0, MASK, bits)
    if op == "sub":
        bits = a.bits.sub(b.bits)
        if a.lo - b.hi >= 0:
            return AbstractWord(a.lo - b.hi, a.hi - b.lo, bits)
        return AbstractWord(0, MASK, bits)
    if op == "mul":
        bits = a.bits.mul(b.bits)
        if a.hi * b.hi <= MASK:
            return AbstractWord(a.lo * b.lo, a.hi * b.hi, bits)
        return AbstractWord(0, MASK, bits)
    if op == "mulhuu":
        return AbstractWord((a.lo * b.lo) >> WIDTH, (a.hi * b.hi) >> WIDTH)
    if op == "divu":
        if b.lo >= 1:
            return AbstractWord(a.lo // b.hi, a.hi // b.lo)
        return AbstractWord.top()  # division by zero yields all-ones
    if op == "remu":
        if b.lo >= 1:
            return AbstractWord(0, min(a.hi, b.hi - 1))
        return AbstractWord(0, a.hi)  # remu(a, 0) = a
    if op == "and":
        return AbstractWord(0, min(a.hi, b.hi), a.bits.band(b.bits))
    if op == "or":
        nbits = max(a.hi.bit_length(), b.hi.bit_length())
        return AbstractWord(max(a.lo, b.lo), min(MASK, (1 << nbits) - 1),
                            a.bits.bor(b.bits))
    if op == "xor":
        nbits = max(a.hi.bit_length(), b.hi.bit_length())
        return AbstractWord(0, min(MASK, (1 << nbits) - 1),
                            a.bits.bxor(b.bits))
    if op in ("slu", "sru", "srs"):
        amount = b.as_const()
        if amount is None:
            if op == "sru":
                return AbstractWord(0, a.hi)
            return AbstractWord.top()
        amount %= WIDTH
        if op == "slu":
            bits = a.bits.shl(amount)
            if a.hi << amount <= MASK:
                return AbstractWord(a.lo << amount, a.hi << amount, bits)
            return AbstractWord(0, MASK, bits)
        if op == "sru":
            return AbstractWord(a.lo >> amount, a.hi >> amount,
                                a.bits.lshr(amount))
        return AbstractWord(0, MASK, a.bits.ashr(amount))
    if op == "ltu":
        if a.hi < b.lo:
            return AbstractWord.const(1)
        if a.lo >= b.hi:
            return AbstractWord.const(0)
        return AbstractWord.boolean()
    if op == "lts":
        return AbstractWord.boolean()
    if op == "eq":
        if a.is_const() and b.is_const() and a.lo == b.lo:
            return AbstractWord.const(1)
        if a.hi < b.lo or b.hi < a.lo or a.bits.conflicts(b.bits):
            return AbstractWord.const(0)
        return AbstractWord.boolean()
    return AbstractWord.top()


WordState = Dict[str, AbstractWord]


class WordDomain(AbstractDomain[WordState]):
    """State: dict local -> `AbstractWord`; absent locals are top."""

    def get(self, state: WordState, name: str) -> AbstractWord:
        return state.get(name, AbstractWord.top())

    def eval(self, e: Expr, state: WordState) -> AbstractWord:
        if isinstance(e, ELit):
            return AbstractWord.const(e.value)
        if isinstance(e, EVar):
            return self.get(state, e.name)
        if isinstance(e, ELoad):
            return AbstractWord(0, (1 << (8 * e.size)) - 1)
        if isinstance(e, EOp):
            return _binop(e.op, self.eval(e.lhs, state),
                          self.eval(e.rhs, state))
        return AbstractWord.top()

    def join(self, a: WordState, b: WordState) -> WordState:
        return {name: a[name].join(b[name])
                for name in a.keys() & b.keys()}

    def widen(self, a: WordState, b: WordState) -> WordState:
        return {name: a[name].widen(b[name])
                for name in a.keys() & b.keys()}

    def transfer(self, stmt: object, state: WordState) -> WordState:
        if isinstance(stmt, SSet):
            out = dict(state)
            out[stmt.name] = self.eval(stmt.value, state)
            return out
        if isinstance(stmt, SStackalloc):
            out = dict(state)
            # The address is arbitrary but word-aligned (vcgen assumes
            # exactly this).
            out[stmt.name] = AbstractWord(0, MASK,
                                          KnownBits(WIDTH, 3, 0))
            return out
        if isinstance(stmt, (SCall, SInteract, FCall, FInteract)):
            out = dict(state)
            for name in stmt.binds:
                out[name] = AbstractWord.top()
            return out
        if isinstance(stmt, FSetLit):
            out = dict(state)
            out[stmt.dst] = AbstractWord.const(stmt.value)
            return out
        if isinstance(stmt, FSetVar):
            out = dict(state)
            out[stmt.dst] = self.get(state, stmt.src)
            return out
        if isinstance(stmt, FOp):
            out = dict(state)
            out[stmt.dst] = _binop(stmt.op, self.get(state, stmt.lhs),
                                   self.get(state, stmt.rhs))
            return out
        if isinstance(stmt, FLoad):
            out = dict(state)
            out[stmt.dst] = AbstractWord(0, (1 << (8 * stmt.size)) - 1)
            return out
        if isinstance(stmt, FStackalloc):
            out = dict(state)
            out[stmt.dst] = AbstractWord(0, MASK, KnownBits(WIDTH, 3, 0))
            return out
        return state  # SStore / FStore: locals unchanged

    def _cond_value(self, cond: object, state: WordState) -> AbstractWord:
        if isinstance(cond, str):  # FlatImp condition variable
            return self.get(state, cond)
        return self.eval(cond, state)

    def decide(self, state: WordState, cond: object) -> Optional[bool]:
        value = self._cond_value(cond, state)
        if value.hi == 0:
            return False
        if value.lo >= 1:
            return True
        return None

    def assume(self, state: WordState, cond: object,
               taken: bool) -> WordState:
        out = dict(state)
        self._refine(cond, taken, out)
        return out

    def _refine(self, cond: object, taken: bool, state: WordState) -> None:
        """Narrow variable ranges using the branch condition. Sound: only
        shrinks the abstraction of executions that actually take the
        branch."""
        name = None
        if isinstance(cond, str):
            name = cond
        elif isinstance(cond, EVar):
            name = cond.name
        if name is not None:
            current = self.get(state, name)
            if not taken:
                state[name] = AbstractWord.const(0)
            elif current.lo == 0:
                state[name] = AbstractWord(1, max(current.hi, 1),
                                           current.bits)
            return
        if not isinstance(cond, EOp):
            return
        if cond.op == "ltu":
            self._refine_ltu(cond.lhs, cond.rhs, taken, state)
        elif cond.op == "eq":
            # ``a == b`` as a 0/1 word: taken means equal.
            self._refine_eq(cond.lhs, cond.rhs, taken, state)

    def _refine_ltu(self, lhs: Expr, rhs: Expr, taken: bool,
                    state: WordState) -> None:
        lval = self.eval(lhs, state)
        rval = self.eval(rhs, state)
        if taken:  # lhs < rhs
            if isinstance(lhs, EVar) and rval.hi >= 1:
                v = self.get(state, lhs.name)
                state[lhs.name] = AbstractWord(v.lo, min(v.hi, rval.hi - 1),
                                               v.bits)
            if isinstance(rhs, EVar) and lval.lo <= MASK - 1:
                v = self.get(state, rhs.name)
                state[rhs.name] = AbstractWord(max(v.lo, lval.lo + 1), v.hi,
                                               v.bits)
        else:  # lhs >= rhs
            if isinstance(lhs, EVar):
                v = self.get(state, lhs.name)
                state[lhs.name] = AbstractWord(max(v.lo, rval.lo), v.hi,
                                               v.bits)
            if isinstance(rhs, EVar):
                v = self.get(state, rhs.name)
                state[rhs.name] = AbstractWord(v.lo, min(v.hi, lval.hi),
                                               v.bits)

    def _refine_eq(self, lhs: Expr, rhs: Expr, taken: bool,
                   state: WordState) -> None:
        if not taken:
            return  # disequality carries almost no interval information
        lval = self.eval(lhs, state)
        rval = self.eval(rhs, state)
        if isinstance(lhs, EVar) and rval.is_const():
            state[lhs.name] = AbstractWord.const(rval.lo)
        if isinstance(rhs, EVar) and lval.is_const():
            state[rhs.name] = AbstractWord.const(lval.lo)


# ---------------------------------------------------------------------------
# External-call protocol (chip-select pairing)


@dataclass(frozen=True)
class CsPairingSpec:
    """An acquire/release protocol on one MMIO register: writing
    ``acquire`` to ``addr`` enters the held state, writing ``release``
    leaves it. Instantiated by callers (the CLI / tests) with the
    platform's chip-select constants -- this package never imports the
    platform layer."""

    addr: int
    acquire: int
    release: int
    write_action: str = "MMIOWRITE"


#: Protocol positions; the state is the frozenset of positions the
#: function *may* be in (a may-analysis: union at joins).
RELEASED = "released"
HELD = "held"

ProtoState = FrozenSet[str]


class ExtProtocolDomain(AbstractDomain[ProtoState]):
    """Tracks the chip-select protocol position across external calls.

    Non-interact statements (including Bedrock2 calls) are assumed to
    preserve the protocol position; each function is checked separately
    starting from `RELEASED`, matching the driver convention that a
    callee either leaves chip-select alone or pairs its own
    acquire/release (every callee is itself linted under the same rule).
    """

    def __init__(self, spec: Optional[CsPairingSpec]):
        self.spec = spec

    def join(self, a: ProtoState, b: ProtoState) -> ProtoState:
        return a | b

    def classify(self, stmt: object) -> Optional[str]:
        """\"acquire\", \"release\", or None for an interact statement."""
        if self.spec is None:
            return None
        if isinstance(stmt, SInteract):
            if stmt.action != self.spec.write_action or len(stmt.args) != 2:
                return None
            addr, value = stmt.args
            if not (isinstance(addr, ELit) and addr.value == self.spec.addr):
                return None
            if isinstance(value, ELit):
                if value.value == self.spec.acquire:
                    return "acquire"
                if value.value == self.spec.release:
                    return "release"
        return None

    def transfer(self, stmt: object, state: ProtoState) -> ProtoState:
        kind = self.classify(stmt)
        if kind == "acquire":
            return frozenset({HELD})
        if kind == "release":
            return frozenset({RELEASED})
        return state
