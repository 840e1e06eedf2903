"""The portfolio decision procedure for verification conditions.

Plays the role of Coq's proof checking in the paper (section "What is
checked" of DESIGN.md): verification conditions emitted by the program logic
are *decided* here. After the proof cache (`repro.logic.cache`, when one
is installed), the portfolio's tiers are:

1. witness models: a query may come with candidate models (the symbolic
   executor offers the models that settled earlier paths); one under
   which the formula evaluates to true shows it satisfiable without any
   search. A witness can only ever answer "satisfiable";
2. structural simplification (smart constructors already fold constants);
3. unsigned interval analysis (`repro.logic.intervals`) as a cheap filter;
4. bit-blasting to CNF + CDCL SAT (`repro.logic.bitblast`, `repro.logic.sat`),
   incremental: a caller may pass the `BitBlaster` of its earlier
   queries, and the query is solved on it under the literals of its
   conjuncts.

The result of `prove` is either success or a concrete counterexample model,
which is validated by evaluation before being reported (the solver never
reports an unchecked countermodel).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Sequence

from . import terms as T
from .. import obs
from .bitblast import BitBlaster
from .intervals import decide_bool
from .sat import SATISFIABLE, BudgetExceeded
from .simplify import simplify


class ProofFailure(Exception):
    """A verification condition is falsifiable; carries a countermodel."""

    def __init__(self, goal: T.Term, model: Dict[str, int]):
        self.goal = goal
        self.model = model
        super().__init__("VC falsified: %r under %r" % (goal, model))


class SolverTimeout(Exception):
    """The SAT backend exceeded its conflict budget.

    Wraps `repro.logic.sat.BudgetExceeded` per *query*, so callers that
    batch many obligations (the parallel dispatcher, `vcgen.VC.prove`)
    can mark the one timed-out VC as ``timeout`` and keep going instead
    of aborting the whole batch.
    """


# The process-wide proof cache consulted by `check_valid` (see
# `repro.logic.cache`). Installed via `set_cache`/`cached`; `None` means
# every query is decided from scratch.
_ACTIVE_CACHE = None


def set_cache(cache):
    """Install ``cache`` (a `repro.logic.cache.ProofCache` or None) as the
    cache consulted by every `check_valid` query; returns the previous one."""
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def get_cache():
    return _ACTIVE_CACHE


@contextlib.contextmanager
def cached(cache):
    """Context manager: run a workload with ``cache`` installed."""
    previous = set_cache(cache)
    try:
        yield cache
    finally:
        set_cache(previous)


# Decision-tier statistics for the solver-portfolio ablation: how many
# validity queries each tier settled. These live in the observability
# registry (`repro.obs`); the counters are pre-bound so the per-query cost
# is one attribute increment.
_TIERS = ("structural", "witness", "interval", "sat")
_TIER_COUNTERS = {tier: obs.counter("solver.tier." + tier) for tier in _TIERS}
_QUERIES = obs.counter("solver.queries")
#: The SAT tier's effort counters, in `_sat_effort` order.
_SAT_EFFORT = tuple(obs.counter(name) for name in (
    "sat.decisions", "sat.propagations", "sat.conflicts", "sat.restarts",
    "sat.learned_clauses", "bitblast.cnf_vars", "bitblast.cnf_clauses",
    "bitblast.cache_hits"))


def tier_counts() -> Dict[str, int]:
    """Per-tier settled-query counts, read from the registry. (The old
    ``STATS`` read-through alias and ``reset_stats`` are gone; reset via
    ``obs.REGISTRY.reset()`` or the individual counters.)"""
    return {tier: _TIER_COUNTERS[tier].value for tier in _TIERS}


def _sat_effort(blaster: BitBlaster) -> tuple:
    """The cumulative effort of ``blaster`` and its solver, in
    `_SAT_EFFORT` order."""
    solver = blaster.solver
    return (solver.decisions, solver.propagations, solver.conflicts,
            solver.restarts, solver.learned, solver.num_vars,
            len(solver.clauses) - solver.learned, blaster.cache_hits)


def _flush_sat_stats(blaster: BitBlaster, before: tuple) -> int:
    """Count one query's own SAT effort (the growth of ``blaster``'s
    effort since ``before``) into the registry; returns its conflicts."""
    delta = [now - then for now, then in zip(_sat_effort(blaster), before)]
    for counter, amount in zip(_SAT_EFFORT, delta):
        counter.inc(amount)
    return delta[2]


class Result:
    """Outcome of a validity check. ``digest`` is the proof-cache
    fingerprint of the formula `check_valid` decided, or None when no
    cache was installed."""

    __slots__ = ("valid", "model", "digest")

    def __init__(self, valid: bool, model: Optional[Dict[str, int]] = None):
        self.valid = valid
        self.model = model
        self.digest: Optional[str] = None

    def __bool__(self) -> bool:
        return self.valid

    def __repr__(self) -> str:
        if self.valid:
            return "Result(valid)"
        return "Result(invalid, model=%r)" % (self.model,)


def _replay_cached(entry, varmap: Dict[str, str], formula: T.Term,
                   goal: T.Term, hyps: List[T.Term]) -> Optional[Result]:
    """Turn a cache entry back into a `Result`, or None when the entry is
    poisoned (a cached countermodel that does not falsify the formula)."""
    if entry.valid:
        return Result(True)
    inverse = {canon: orig for orig, canon in varmap.items()}
    model: Dict[str, int] = {}
    for canon, value in (entry.model or {}).items():
        orig = inverse.get(canon)
        if orig is not None:
            model[orig] = value
    model = _model_of(formula, _free_vars(goal, hyps), model)
    if model is None:
        return None
    return Result(False, model)


def check_valid(goal: T.Term, hypotheses: Iterable[T.Term] = (),
                max_conflicts: int = 2_000_000,
                witnesses: Sequence[Dict[str, int]] = (),
                blaster: Optional[BitBlaster] = None) -> Result:
    """Decide whether ``hypotheses |= goal``.

    Returns a `Result`; when invalid, ``result.model`` is a satisfying
    assignment of ``hypotheses & ~goal`` (checked by evaluation).

    When a proof cache is installed (`set_cache`), the formula is
    content-addressed first and decided results are recorded; cache hits
    skip the decision procedure entirely. ``witnesses`` are candidate
    models tried next (see `_witness`); one that satisfies
    ``hypotheses & ~goal`` settles the query as invalid, with no search.

    ``blaster`` is the incremental `BitBlaster` (and SAT solver) the SAT
    tier extends and solves on; the program logic passes one per verified
    function, so a query reuses the gates and learned clauses of the
    function's earlier queries. Without one, the query gets a fresh one.
    """
    hyps: List[T.Term] = [h for h in hypotheses]
    _QUERIES.inc()
    with obs.span("solver.check_valid", cat="solver") as sp:
        formula = T.and_(*(hyps + [T.not_(goal)]))
        cache = _ACTIVE_CACHE
        digest = varmap = None
        if cache is not None:
            from . import cache as C

            digest, varmap = C.fingerprint(formula)
            entry = cache.lookup(digest)
            if entry is not None:
                result = _replay_cached(entry, varmap, formula, goal, hyps)
                if result is not None:
                    C.HITS.inc()
                    sp.set("tier", "cache")
                    result.digest = digest
                    return result
                cache.poison(digest)
            C.MISSES.inc()
        result = _decide(formula, goal, hyps, max_conflicts, witnesses,
                         blaster, sp)
        if cache is not None:
            canonical = None
            if result.model is not None:
                canonical = {varmap[name]: value
                             for name, value in result.model.items()
                             if name in varmap}
            cache.store(digest, result.valid, canonical)
        result.digest = digest
        return result


def _decide(formula: T.Term, goal: T.Term, hyps: List[T.Term],
            max_conflicts: int, witnesses: Sequence[Dict[str, int]],
            blaster: Optional[BitBlaster], sp) -> Result:
    """The decision portfolio (witness, structural, interval, SAT)."""
    if formula not in (T.TRUE, T.FALSE):
        if witnesses:
            model = _witness(formula, _free_vars(goal, hyps), witnesses)
            if model is not None:
                _TIER_COUNTERS["witness"].inc()
                sp.set("tier", "witness")
                return Result(False, model)
        formula = simplify(formula)
    if formula is T.FALSE:
        _TIER_COUNTERS["structural"].inc()
        sp.set("tier", "structural")
        return Result(True)
    if formula is T.TRUE:
        _TIER_COUNTERS["structural"].inc()
        sp.set("tier", "structural")
        return Result(False, _arbitrary_model(formula, goal, hyps))
    decided = decide_bool(formula)
    if decided is False:
        _TIER_COUNTERS["interval"].inc()
        sp.set("tier", "interval")
        return Result(True)
    _TIER_COUNTERS["sat"].inc()
    sp.set("tier", "sat")
    if blaster is None:
        blaster = BitBlaster()
    before = _sat_effort(blaster)
    # Each top-level conjunct is blasted once per blaster and assumed,
    # not asserted, so the solver stays usable for the next query.
    conjuncts = formula.args if formula.op == "and" else (formula,)
    with obs.span("solver.bitblast", cat="solver"):
        assumptions = [blaster.blast_bool(c) for c in conjuncts]
    try:
        with obs.span("solver.sat", cat="solver"):
            outcome = blaster.solver.solve(max_conflicts=max_conflicts,
                                           assumptions=assumptions)
    except BudgetExceeded as exc:
        _flush_sat_stats(blaster, before)
        raise SolverTimeout("SAT budget exceeded (%s conflicts)"
                            % exc) from exc
    sp.set("conflicts", _flush_sat_stats(blaster, before))
    if outcome != SATISFIABLE:
        return Result(True)
    model = blaster.extract_model(blaster.solver.model(),
                                  T.free_vars(formula))
    _complete_model(model, _free_vars(goal, hyps))
    # Sanity: the countermodel must actually falsify the implication.
    assert T.evaluate(formula, model), "bit-blaster returned a bogus model"
    return Result(False, model)


def prove(goal: T.Term, hypotheses: Iterable[T.Term] = (),
          max_conflicts: int = 2_000_000) -> None:
    """Raise `ProofFailure` unless ``hypotheses |= goal``."""
    result = check_valid(goal, hypotheses, max_conflicts=max_conflicts)
    if not result.valid:
        raise ProofFailure(goal, result.model)


def is_satisfiable(formula: T.Term, max_conflicts: int = 2_000_000,
                   witnesses: Sequence[Dict[str, int]] = (),
                   blaster: Optional[BitBlaster] = None) -> Result:
    """Decide satisfiability of ``formula``; model returned if sat.

    ``witnesses`` are candidate models to try before any search, and
    ``blaster`` is the SAT tier's incremental blaster (see
    `check_valid`): the first witness that makes ``formula`` true, once
    completed, is the returned model."""
    inverse = check_valid(T.not_(formula), max_conflicts=max_conflicts,
                          witnesses=witnesses, blaster=blaster)
    if inverse.valid:
        return Result(False)
    return Result(True, inverse.model)


def _free_vars(goal: T.Term, hyps: List[T.Term]) -> set:
    """The (name, sort) pairs a model of ``hyps & ~goal`` must bind."""
    names = T.free_vars(goal)
    for hyp in hyps:
        T.free_vars(hyp, names)
    return names


def _complete_model(model: Dict[str, int], names: set, fill: int = 0) -> None:
    """Bind every variable of ``names`` the model lacks (eliminated by
    folding, or unseen by a witness) to ``fill``: 0, 1, or -1 for
    all-ones, masked to the variable's width; a boolean gets
    ``fill != 0``."""
    for name, sort in names:
        if name not in model:
            model[name] = (fill != 0 if sort == T.BOOL
                           else fill & ((1 << sort[1]) - 1))


def _model_of(formula: T.Term, names: set, model: Dict[str, int],
              fill: int = 0) -> Optional[Dict[str, int]]:
    """A copy of ``model`` completed for ``names`` (`_complete_model`),
    if ``formula`` evaluates to true under it; else None. Both a cached
    countermodel and a witness are accepted only through this check."""
    completed = dict(model)
    _complete_model(completed, names, fill)
    try:
        holds = T.evaluate(formula, completed)
    except (KeyError, ValueError, TypeError):
        holds = False
    return completed if holds else None


#: The values a witness's missing variables are completed with, in
#: order: 0, then 1, then all-ones (-1 masked to each variable's width).
_FILLS = (0, 1, -1)


def _witness(formula: T.Term, names: set,
             witnesses: Sequence[Dict[str, int]]) -> Optional[Dict[str, int]]:
    """The first candidate model, in order, that makes ``formula`` true
    once completed (each completion of `_FILLS` tried in turn); None when
    none does. Sound: the result is checked by evaluation, and it can
    only show ``formula`` satisfiable."""
    for candidate in witnesses:
        complete = all(name in candidate for name, _ in names)
        for fill in _FILLS[:1] if complete else _FILLS:
            model = _model_of(formula, names, candidate, fill)
            if model is not None:
                return model
    return None


def _arbitrary_model(formula: T.Term, goal: T.Term,
                     hyps: List[T.Term]) -> Dict[str, int]:
    model: Dict[str, int] = {}
    _complete_model(model, _free_vars(goal, hyps))
    return model
