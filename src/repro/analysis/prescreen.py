"""Abstract-interpretation prescreening of verification conditions.

`Prescreener` is the hook `repro.bedrock2.vcgen.VC` consults before the
solver (``verify --prescreen``): it mines the symbolic state's *path
condition* into one environment of `repro.logic.intervals.AbstractWord`
facts about whole terms, then abstractly evaluates the goal with
`repro.logic.intervals.decide_bool`, which meets each fact with the
value it computes for that subterm. Goals the abstraction already
proves never reach bit-blasting or SAT.

Soundness argument (docs/static-analysis.md spells this out): every
fact mined is a logical consequence of the path conjunction, and the
interval/known-bits evaluation is a sound over-approximation of term
semantics, so ``decide_bool(goal) is True`` implies ``path ⊨ goal`` --
exactly what `S.check_valid(goal, hypotheses=path)` would conclude.
Because term DAGs record the whole dataflow history of each symbolic
value, evaluating the goal's DAG under path-derived facts subsumes a
flow-sensitive forward analysis of the function body, without ever
trusting facts the havocked loop states no longer guarantee.

The prescreener only ever *proves* goals (it never refutes), so
verification verdicts with and without it are identical by
construction; only the number of solver queries changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs
from ..logic import terms as T
from ..logic.intervals import AbstractWord, KnownBits, decide_bool

_PRESCREENED = obs.counter("analysis.obligations_prescreened")
_MISSED = obs.counter("analysis.prescreen_misses")

#: Rounds of the relational-tightening pass over mined ``a < b`` /
#: ``b <= a`` facts (transitive chains in real path conditions are
#: short; two rounds already close ``i < num_words <= 380``).
_TIGHTEN_ROUNDS = 3

Env = Dict[T.Term, AbstractWord]


class _Facts:
    """Interval ∧ known-bits facts about whole terms, mined from a path
    condition. Every recorded fact is implied by the path conjunction."""

    def __init__(self) -> None:
        self.env: Env = {}
        #: pairs (a, b) with ``a < b`` known (strict unsigned).
        self.lt: List[Tuple[T.Term, T.Term]] = []
        #: pairs (a, b) with ``a <= b`` known.
        self.le: List[Tuple[T.Term, T.Term]] = []

    # -- recording -----------------------------------------------------------

    def _is_word(self, t: T.Term) -> bool:
        return isinstance(t.sort, tuple)

    def word(self, t: T.Term) -> AbstractWord:
        """What is known about the word term ``t`` so far."""
        return self.env.get(t) or AbstractWord.top(t.width)

    def meet(self, t: T.Term, fact: AbstractWord) -> None:
        """Record ``fact`` about the word term ``t``. Contradictory
        facts mean the path is infeasible, where any answer is sound."""
        if t.is_const():
            return
        old = self.env.get(t)
        self.env[t] = fact if old is None else old.meet(fact)

    # -- mining --------------------------------------------------------------

    def mine(self, fact: T.Term) -> None:
        op = fact.op
        if op == "and":
            for arg in fact.args:
                self.mine(arg)
            return
        if op == "eq":
            self._mine_eq(fact.args[0], fact.args[1])
            return
        if op == "ult":
            a, b = fact.args
            if a.is_const():
                self.meet(b, AbstractWord(a.value + 1, (1 << b.width) - 1,
                                          None, b.width))
            elif b.is_const():
                self.meet(a, AbstractWord(0, max(b.value - 1, 0), None,
                                          a.width))
            else:
                self.lt.append((a, b))
            return
        if op == "not":
            inner = fact.args[0]
            if inner.op == "ult":
                # not (a < b)  ==>  b <= a
                a, b = inner.args
                if a.is_const():
                    self.meet(b, AbstractWord(0, a.value, None, b.width))
                elif b.is_const():
                    self.meet(a, AbstractWord(b.value, (1 << a.width) - 1,
                                              None, a.width))
                else:
                    self.le.append((b, a))
            elif inner.op == "eq":
                self._mine_ne(inner.args[0], inner.args[1])
            return
        if op == "or":
            self._mine_or(fact.args)
            return

    def _mine_eq(self, a: T.Term, b: T.Term) -> None:
        if b.is_const():
            a, b = b, a
        if not a.is_const() or not self._is_word(b):
            return
        value = a.value
        self.meet(b, AbstractWord.const(value, b.width))
        # eq(x & m, c): the masked bits of x are known.
        if b.op == "band" and b.args[1].is_const():
            x, m = b.args
        elif b.op == "band" and b.args[0].is_const():
            m, x = b.args
        else:
            return
        known = KnownBits(x.width, m.value, value)
        self.meet(x, AbstractWord(0, (1 << x.width) - 1, known))

    def _mine_ne(self, a: T.Term, b: T.Term) -> None:
        """Disequality only shaves range endpoints."""
        if b.is_const():
            a, b = b, a
        if not a.is_const() or not self._is_word(b):
            return
        value = a.value
        known = self.word(b)
        lo, hi = known.lo, known.hi
        if lo == value and lo < hi:
            self.meet(b, AbstractWord(lo + 1, hi, None, b.width))
        elif hi == value and lo < hi:
            self.meet(b, AbstractWord(lo, hi - 1, None, b.width))

    def _mine_or(self, disjuncts: Tuple[T.Term, ...]) -> None:
        """``x == c1 or x == c2 or ...`` pins x into the hull of the
        constants and the join of their bit patterns."""
        subject: Optional[T.Term] = None
        values: List[int] = []
        for d in disjuncts:
            if d.op != "eq":
                return
            a, b = d.args
            if b.is_const():
                a, b = b, a
            if not a.is_const() or b.is_const():
                return
            if subject is None:
                subject = b
            elif subject is not b:
                return
            values.append(a.value)
        if subject is None or not self._is_word(subject):
            return
        kb = KnownBits.from_const(values[0], subject.width)
        for v in values[1:]:
            kb = kb.join(KnownBits.from_const(v, subject.width))
        self.meet(subject, AbstractWord(min(values), max(values), kb))

    # -- relational tightening ----------------------------------------------

    def tighten(self) -> None:
        """Propagate ``a < b`` / ``a <= b`` pairs through the ranges
        already recorded (closes transitive chains like
        ``i < num_words <= N`` into a concrete bound on ``i``)."""
        for _ in range(_TIGHTEN_ROUNDS):
            changed = False
            for a, b in self.lt:
                bw, aw = self.word(b), self.word(a)
                if bw.hi >= 1 and aw.hi > bw.hi - 1:
                    self.meet(a, AbstractWord(0, bw.hi - 1, None, a.width))
                    changed = True
                if aw.lo + 1 > bw.lo:
                    self.meet(b, AbstractWord(aw.lo + 1, bw.hi, None,
                                              b.width))
                    changed = True
            for a, b in self.le:
                bw, aw = self.word(b), self.word(a)
                if aw.hi > bw.hi:
                    self.meet(a, AbstractWord(0, bw.hi, None, a.width))
                    changed = True
                if aw.lo > bw.lo:
                    self.meet(b, AbstractWord(aw.lo, bw.hi, None, b.width))
                    changed = True
            if not changed:
                return


def mine_path(path: Tuple[T.Term, ...]) -> Env:
    """Mine a path condition into an environment of facts about terms;
    every entry is a consequence of the conjunction of ``path``."""
    facts = _Facts()
    for fact in path:
        facts.mine(fact)
    facts.tighten()
    return facts.env


class Prescreener:
    """The ``prescreen`` hook for `repro.bedrock2.vcgen.VC`.

    Caches the mined environment per path-condition tuple: symbolic
    execution proves many obligations under the same path, and terms are
    hash-consed, so the tuple is a cheap exact key.
    """

    def __init__(self) -> None:
        self.discharged = 0
        self.attempts = 0
        self._cache: Dict[Tuple[T.Term, ...], Env] = {}

    def __call__(self, state: object, goal: T.Term) -> bool:
        self.attempts += 1
        if goal is T.TRUE:
            # Constant-folded goals (e.g. MMIO obligations on literal
            # addresses) are proved by construction.
            self.discharged += 1
            _PRESCREENED.inc()
            return True
        path = tuple(getattr(state, "path", ()))
        env = self._cache.get(path)
        if env is None:
            env = self._cache[path] = mine_path(path)
        if decide_bool(goal, env) is True:
            self.discharged += 1
            _PRESCREENED.inc()
            return True
        _MISSED.inc()
        return False
