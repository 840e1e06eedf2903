"""Abstract domains for the Bedrock2 dataflow framework.

Three domains, each an `repro.analysis.dataflow.AbstractDomain`:

* `DefiniteAssignmentDomain` -- which locals are assigned on *every*
  path (join is intersection); powers the use-before-def check.
* `WordDomain` -- every local as a `repro.logic.intervals.AbstractWord`
  (an unsigned interval meeting a known-bits mask). A Bedrock2 binop is
  renamed to its term operator and handed to
  `repro.logic.intervals.word_binop`, the transfer function the VC
  prescreener and the solver's interval tier use too. Powers
  unreachable-branch and misaligned/MMIO address checks.
* `ExtProtocolDomain` -- a finite-state may-analysis of external-call
  protocol position (chip-select acquire/release pairing); powers the
  call-order checks.

Every domain reads Bedrock2 AST statements and expressions, the one
structured IR `repro.analysis` analyzes; the compiler's FlatImp is its
private IR.
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
from ..logic.intervals import MASK, WIDTH, AbstractWord, KnownBits, word_binop
from .dataflow import AbstractDomain


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
        if isinstance(stmt, (SCall, SInteract)):
            return state | frozenset(stmt.binds)
        return state


# ---------------------------------------------------------------------------
# Words as intervals + known bits

#: Bedrock2 binop names that differ from the term operator names
#: `repro.logic.intervals.word_binop` takes.
_TERM_OPS = {
    "divu": "udiv", "remu": "urem", "and": "band", "or": "bor",
    "xor": "bxor", "slu": "shl", "sru": "lshr", "srs": "ashr",
    "ltu": "ult", "lts": "slt",
}


def _binop(op: str, a: AbstractWord, b: AbstractWord) -> AbstractWord:
    """Abstract transfer for a Bedrock2 binop: `word_binop` of its term
    operator."""
    return word_binop(_TERM_OPS.get(op, op), a, b)


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
        if isinstance(stmt, (SCall, SInteract)):
            out = dict(state)
            for name in stmt.binds:
                out[name] = AbstractWord.top()
            return out
        return state  # SStore: locals unchanged

    def decide(self, state: WordState, cond: Expr) -> Optional[bool]:
        value = self.eval(cond, state)
        if value.hi == 0:
            return False
        if value.lo >= 1:
            return True
        return None

    def assume(self, state: WordState, cond: Expr,
               taken: bool) -> WordState:
        out = dict(state)
        self._refine(cond, taken, out)
        return out

    def _refine(self, cond: Expr, taken: bool, state: WordState) -> None:
        """Narrow variable ranges using the branch condition. Sound: only
        shrinks the abstraction of executions that actually take the
        branch."""
        if isinstance(cond, EVar):
            current = self.get(state, cond.name)
            if not taken:
                state[cond.name] = AbstractWord.const(0)
            elif current.lo == 0:
                state[cond.name] = AbstractWord(1, max(current.hi, 1),
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
