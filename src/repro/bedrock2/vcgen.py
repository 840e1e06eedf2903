"""The Bedrock2 program logic (paper sections 4.1 and 6.1).

This is the verification-condition generator: a symbolic executor in
postcondition-passing style. Where the paper's ``vcgen`` computes a weakest
precondition that is then proven in Coq, ours walks the program with
symbolic words (`repro.logic.terms`), emits each side condition as a
quantifier-free bitvector formula, and *decides* it with the portfolio
solver -- failures carry concrete countermodels.

Supported reasoning, mirroring the paper's usage:

* full functional verification of straight-line and branching scalar code;
* loops via `LoopSpec` (invariant + strictly decreasing unsigned measure --
  the paper proves *total* correctness, hence the timeout counters in the
  drivers) or via bounded unrolling when the condition resolves concretely;
* modular function calls via one `FunctionSpec` per function (the body is
  verified against it once; every call site proves its precondition and
  assumes its postcondition), the paper's central modularity mechanism;
* external calls via a symbolic external-call specification (`vcextern` in
  the paper), instantiated for MMIO in `repro.bedrock2.extspec`;
* memory via named regions (separation-logic flavor): concrete-offset
  accesses track byte contents exactly; symbolic-offset accesses are proven
  in bounds and conservatively havoc contents (sound for safety and trace
  properties; see DESIGN.md "Known deviations").
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..logic import cache as C
from ..logic import solver as S
from ..logic import terms as T
from ..logic.bitblast import BitBlaster
from .ast_ import (
    Cmd,
    ELit,
    ELoad,
    EOp,
    EVar,
    Expr,
    Program,
    SCall,
    SIf,
    SInteract,
    SSeq,
    SSet,
    SSkip,
    SStackalloc,
    SStore,
    SWhile,
)

# Observability: verification-condition production counters (pre-bound;
# see docs/observability.md). Spans per VC are emitted by `VC.prove`.
_VCS_PROVED = obs.counter("vcgen.obligations_proved")
_VCS_ASSUMED = obs.counter("vcgen.assumptions_made")
_VCS_TIMEOUT = obs.counter("vcgen.obligations_timeout")
_PATHS = obs.counter("vcgen.paths_explored")
_FUNCTIONS = obs.counter("vcgen.functions_verified")
_OBLIGATION_SECONDS = obs.histogram("vcgen.obligation_seconds")

# Pre-bound solver counters the ledger attributes per obligation: effort
# is the delta across the query; the tier is whichever tier counter
# moved. (Registry get-or-create returns the same objects solver.py and
# cache.py already bind.)
_EFFORT_REFS = tuple(
    (key, obs.counter(name))
    for key, name in (("decisions", "sat.decisions"),
                      ("propagations", "sat.propagations"),
                      ("conflicts", "sat.conflicts"),
                      ("cnf_vars", "bitblast.cnf_vars"),
                      ("cnf_clauses", "bitblast.cnf_clauses")))
_TIER_REFS = tuple(
    (tier, obs.counter("solver.tier." + tier)) for tier in S.tier_counts())
_CACHE_HITS = obs.counter("cache.hits")
_CACHE_MISSES = obs.counter("cache.misses")


def _solver_snapshot() -> tuple:
    """Counter baseline taken before a ledgered solver query."""
    return (tuple(counter.value for _, counter in _EFFORT_REFS),
            tuple(counter.value for _, counter in _TIER_REFS),
            _CACHE_HITS.value, _CACHE_MISSES.value)


def _solver_delta(snapshot: tuple):
    """(effort dict, tier, cache hit/miss) attributed to the query since
    ``snapshot``. The cache tier wins over the portfolio tiers (a cache
    hit runs no tier at all)."""
    effort0, tiers0, hits0, misses0 = snapshot
    effort = {key: counter.value - before
              for (key, counter), before in zip(_EFFORT_REFS, effort0)}
    tier = None
    for (name, counter), before in zip(_TIER_REFS, tiers0):
        if counter.value > before:
            tier = name
            break
    cache_state = None
    if _CACHE_HITS.value > hits0:
        tier, cache_state = "cache", "hit"
    elif _CACHE_MISSES.value > misses0:
        cache_state = "miss"
    return effort, tier, cache_state


def _short_loc(loc) -> Optional[str]:
    """Render a builder frame-stamp ``(filename, lineno)`` as a stable
    ``path:line`` string (paths shortened to the in-repo suffix so the
    ledger does not depend on the checkout location)."""
    if loc is None:
        return None
    filename, lineno = loc
    cut = filename.rfind("repro" + os.sep)
    if cut >= 0:
        filename = filename[cut:]
    else:
        filename = os.path.basename(filename)
    return "%s:%d" % (filename.replace(os.sep, "/"), lineno)


class VerificationError(Exception):
    """A side condition failed, with location context and countermodel."""

    def __init__(self, context: str, detail: str,
                 model: Optional[Dict[str, int]] = None):
        self.context = context
        self.detail = detail
        self.model = model
        super().__init__("%s: %s%s" % (
            context, detail, ("\n  countermodel: %r" % (model,)) if model else ""))

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__`` and breaks; rebuild from the parts
        # instead so the error round-trips through dispatcher workers.
        return (VerificationError, (self.context, self.detail, self.model))


@dataclass(frozen=True)
class SymEvent:
    """A symbolic interaction-trace entry."""

    action: str
    args: Tuple[T.Term, ...]
    rets: Tuple[T.Term, ...]


@dataclass(frozen=True)
class TraceHole:
    """An abstract trace segment produced by a havocked loop or a call to
    a specified function: "zero or more events, each satisfying the tagged
    shape".
    Trace predicates over symbolic traces interpret holes by tag."""

    tag: str


@dataclass
class Region:
    """A named, owned byte region at a (usually symbolic) base address.

    ``contents`` is a list of byte terms when precisely tracked, or ``None``
    after a conservative havoc."""

    name: str
    base: T.Term
    size: int
    contents: Optional[List[T.Term]]

    def havoc(self, fresh: Callable[[str, int], T.Term]) -> None:
        self.contents = None

    def byte(self, offset: int, fresh: Callable[[str, int], T.Term]) -> T.Term:
        if self.contents is None:
            # Unknown contents: each read sees an arbitrary byte.
            return fresh("%s_b%d" % (self.name, offset), 8)
        return self.contents[offset]


@dataclass
class LoopSpec:
    """Loop annotation for the program logic.

    ``invariant(state) -> Term`` must hold at every loop head;
    ``measure(state) -> Term`` (unsigned word) must strictly decrease on
    every iteration (total correctness, as in the paper);
    ``modified`` lists havocked locals (inferred from the AST if None);
    ``modified_regions`` lists memory regions the body may write;
    ``event_filter(event, vc, state)`` is an obligation every event emitted
    inside the loop must satisfy -- the loop's trace contribution becomes a
    `TraceHole` whose tag promises exactly this shape;
    ``tag`` names the hole."""

    invariant: Callable
    measure: Optional[Callable] = None
    modified: Optional[Sequence[str]] = None
    modified_regions: Sequence[str] = ()
    event_filter: Optional[Callable] = None
    tag: str = "loop"


def _no_facts(*_args) -> Dict[str, T.Term]:
    return {}


@dataclass
class FunctionSpec:
    """The one specification of a Bedrock2 function (Bedrock2's
    ``spec_of``, sections 4.1 and 6.1), used both ways: `verify_function`
    assumes its precondition and proves its postcondition on the body,
    and every call site proves the precondition and assumes the
    postcondition -- so a caller assumes only what the callee's own
    verification proved.

    ``pre(args)`` and ``post(args, rets)`` return ``{label: Term}`` facts.
    The body assumes each ``pre`` fact and proves each ``post`` fact as
    ``f/post-<label>``; a call proves each ``pre`` fact as
    ``<ctx>/call:f/pre/<label>``, then assumes each ``post`` fact.

    ``buffers`` lists ``(argument index, region name, bytes)``. On entry
    the argument is the word-aligned, non-wrapping base of a fresh owned
    region of that name and size; a call proves the argument is the base
    of the caller's region of that name (``.../pre/<name>-is-region``) and
    havocs that region.

    ``on_exit(vc, state, args, rets)`` runs on each final state of the
    body after the postcondition: the checks only the body can make, such
    as ones over its own trace. A call contributes ``TraceHole(f)``.
    """

    pre: Callable[..., Dict[str, T.Term]] = _no_facts
    post: Callable[..., Dict[str, T.Term]] = _no_facts
    buffers: Sequence[Tuple[int, str, int]] = ()
    on_exit: Optional[Callable] = None


class SymState:
    """One symbolic execution state (a conjunction of path facts plus a
    symbolic store, memory, and trace).

    ``model`` is the model that last showed the path feasible (None
    before the first feasibility query). Copies share it, so a model is
    replaced, never changed in place."""

    __slots__ = ("locals", "path", "trace", "regions", "model")

    def __init__(self):
        self.locals: Dict[str, T.Term] = {}
        self.path: List[T.Term] = []
        self.trace: List[object] = []
        self.regions: Dict[str, Region] = {}
        self.model: Optional[Dict[str, int]] = None

    def copy(self) -> "SymState":
        other = SymState()
        other.locals = dict(self.locals)
        other.path = list(self.path)
        other.trace = list(self.trace)
        other.model = self.model
        other.regions = {
            name: Region(r.name, r.base, r.size,
                         list(r.contents) if r.contents is not None else None)
            for name, r in self.regions.items()
        }
        return other

    def assume(self, fact: T.Term) -> None:
        if fact is not T.TRUE:
            self.path.append(fact)
            _VCS_ASSUMED.inc()


def _own_region(state: SymState, name: str, base: T.Term, size: int,
                contents: List[T.Term]) -> None:
    """Own ``size`` bytes at ``base`` as region ``name``. The address is
    arbitrary but word-aligned and non-wrapping -- exactly the guarantees
    the compiler provides."""
    state.assume(T.eq(T.band(base, T.const(3)), T.const(0)))
    state.assume(T.ule(base, T.const(0xFFFFFFFF - size)))
    state.regions[name] = Region(name, base, size, contents)


class VC:
    """The verification-condition engine of one function's verification:
    fresh-name supply, obligation discharge, and statistics.

    It owns one incremental `BitBlaster`, which every SAT-tier query of
    the function (obligations and path-feasibility checks alike) extends
    and solves on: a query blasts only the gates the function's earlier
    queries did not, and keeps what their searches learned.

    A per-obligation SAT-budget exhaustion is a recorded ``timeout``
    status in the final report, not an exception that aborts the whole
    run -- one stuck VC must not take down the otherwise-decidable
    obligations around it.

    ``prescreen`` is an optional ``(state, goal) -> bool`` hook consulted
    before the solver; returning True means the goal is *proved* under
    the state's path condition, so the obligation is counted as
    discharged without a solver query. The hook must be sound -- it may
    only claim goals that `S.check_valid` would also prove. The standard
    implementation is `repro.analysis.prescreen.Prescreener` (injected
    here rather than imported, keeping the Figure-3 layering acyclic).
    """

    def __init__(self, max_conflicts: int = 2_000_000,
                 prescreen: Optional[Callable[["SymState", T.Term], bool]] = None,
                 function: str = ""):
        self._counter = itertools.count()
        self.max_conflicts = max_conflicts
        self.prescreen = prescreen
        self.function = function
        #: eDSL source location of the statement currently executing
        #: (set by `SymExec._exec` from the builder's frame stamps);
        #: ledger records attribute obligations to it.
        self.current_loc: Optional[tuple] = None
        self._ledger_seq = itertools.count()
        self.blaster = BitBlaster()
        self.obligations_proved = 0
        self.assumptions_made = 0
        self.timeouts: List[str] = []

    def prescreened(self, state: SymState, goal: T.Term) -> bool:
        """True when the prescreen hook soundly discharges ``goal``."""
        return self.prescreen is not None and self.prescreen(state, goal)

    def fresh(self, hint: str = "v", width: int = 32) -> T.Term:
        name = "%s!%d" % (hint, next(self._counter))
        if width == 0:
            return T.bool_var(name)
        return T.var(name, width)

    def _ledger(self, led, state: SymState, goal: T.Term, context: str,
                status: str, snapshot: Optional[tuple],
                digest: Optional[str], t0: float,
                tier: Optional[str] = None,
                prescreen: Optional[str] = None) -> None:
        """Append one obligation record to the active ledger. ``digest``
        is the fingerprint `solver.check_valid` computed, if it did."""
        if snapshot is not None:
            effort, solved_tier, cache_state = _solver_delta(snapshot)
            if tier is None:
                tier = solved_tier
        else:
            effort, cache_state = {key: 0 for key, _ in _EFFORT_REFS}, None
        if digest is None:
            # The same formula `solver.check_valid` decides, fingerprinted
            # the same way the proof cache keys it.
            digest, _ = C.fingerprint(
                T.and_(*(list(state.path) + [T.not_(goal)])))
        led.append({
            "function": self.function,
            "seq": next(self._ledger_seq),
            "context": context,
            "loc": _short_loc(self.current_loc),
            "fp": digest,
            "status": status,
            "tier": tier,
            "cache": cache_state,
            "prescreen": prescreen,
            "effort": effort,
            "wall_us": int((time.perf_counter() - t0) * 1e6),
            "pid": os.getpid(),
        })

    def _discharge(self, state: SymState, goal: T.Term, context: str
                   ) -> Tuple[bool, Optional[Dict[str, int]]]:
        """Decide one obligation under the path condition -- the
        prescreen hook, else the solver -- then time, count and ledger
        it. Returns (proved, countermodel); a `S.SolverTimeout` is
        timed and ledgered, then re-raised."""
        t0 = time.perf_counter()
        led = obs.ledger()
        snapshot = _solver_snapshot() if led is not None else None
        tier = reason = model = digest = None
        if self.prescreened(state, goal):
            proved, snapshot, tier = True, None, "prescreen"
            reason = "const-goal" if goal is T.TRUE else "abstract-interp"
        else:
            try:
                result = S.check_valid(goal, hypotheses=state.path,
                                       max_conflicts=self.max_conflicts,
                                       blaster=self.blaster)
            except S.SolverTimeout:
                _OBLIGATION_SECONDS.record(time.perf_counter() - t0)
                if led is not None:
                    self._ledger(led, state, goal, context, "timeout",
                                 snapshot, None, t0)
                raise
            proved, model, digest = result.valid, result.model, result.digest
        _OBLIGATION_SECONDS.record(time.perf_counter() - t0)
        if proved:
            self.obligations_proved += 1
            _VCS_PROVED.inc()
        if led is not None:
            self._ledger(led, state, goal, context,
                         "proved" if proved else "unprovable", snapshot,
                         digest, t0, tier=tier, prescreen=reason)
        return proved, model

    def prove(self, state: SymState, goal: T.Term, context: str) -> None:
        """Discharge an obligation under the current path condition."""
        with obs.span("vc.prove", cat="vcgen", args={"context": context}):
            try:
                proved, model = self._discharge(state, goal, context)
            except S.SolverTimeout:
                # Distinguish the budget-exceeded VC from a refuted one:
                # it is *unknown*, recorded per obligation, and the rest
                # of the run proceeds.
                self.timeouts.append(context)
                _VCS_TIMEOUT.inc()
                return
        if not proved:
            raise VerificationError(context, "cannot prove %r" % (goal,),
                                    model)

    def check_bounds(self, state: SymState, goal: T.Term,
                     context: str) -> bool:
        """Decide a memory-safety side condition (symbolic access within
        an owned region). Returns True when proved -- counted and
        ledgered like any obligation -- and False when not provable
        under this region (the resolver tries the next candidate, so an
        unprovable bounds record is not by itself a failed run)."""
        return self._discharge(state, goal, context)[0]


#: How many of a function's most recent path models `SymExec` offers
#: the solver as witnesses for the next feasibility query.
RECENT_MODELS = 8


class SymExec:
    """Symbolic executor for Bedrock2 commands.

    `run` explores every feasible path (branching duplicates the state) and
    invokes ``on_exit(state)`` at each normal exit. Loop and call handling
    follow the rules documented on `LoopSpec` and `FunctionSpec`; a call
    to a function without a spec in ``specs`` is inlined.
    """

    def __init__(self, program: Program, vc: VC, ext_spec,
                 specs: Optional[Dict[str, FunctionSpec]] = None,
                 unroll_limit: int = 64):
        self.program = program
        self.vc = vc
        self.ext_spec = ext_spec
        self.specs = specs or {}
        self.unroll_limit = unroll_limit
        self._recent: Deque[Dict[str, int]] = deque(maxlen=RECENT_MODELS)

    # -- expressions ---------------------------------------------------------

    def eval_expr(self, e: Expr, state: SymState, context: str) -> T.Term:
        if isinstance(e, ELit):
            return T.const(e.value)
        if isinstance(e, EVar):
            if e.name not in state.locals:
                raise VerificationError(context, "unbound variable %r" % e.name)
            return state.locals[e.name]
        if isinstance(e, ELoad):
            addr = self.eval_expr(e.addr, state, context)
            return self._load(state, addr, e.size, context)
        if isinstance(e, EOp):
            lhs = self.eval_expr(e.lhs, state, context)
            rhs = self.eval_expr(e.rhs, state, context)
            return _sym_binop(e.op, lhs, rhs)
        raise TypeError("not an expression: %r" % (e,))

    # -- memory --------------------------------------------------------------

    def _resolve(self, state: SymState, addr: T.Term, nbytes: int,
                 context: str):
        """Find the region owning [addr, addr+nbytes): returns
        (region, concrete_offset or None, offset_term)."""
        from ..logic.simplify import normalize_bv

        for region in state.regions.values():
            offset = normalize_bv(T.sub(addr, region.base))
            if offset.is_const():
                if offset.value + nbytes <= region.size:
                    return region, offset.value, offset
                continue
            # Symbolic offset: accept if provably in bounds.
            in_bounds = T.ule(offset, T.const(region.size - nbytes))
            if self.vc.check_bounds(state, in_bounds,
                                    context + "/bounds:" + region.name):
                return region, None, offset
        raise VerificationError(
            context,
            "cannot prove %d-byte access at %r lies within an owned region"
            % (nbytes, addr))

    def _check_aligned(self, state: SymState, addr: T.Term, nbytes: int,
                       context: str) -> None:
        if nbytes > 1:
            goal = T.eq(T.band(addr, T.const(nbytes - 1)), T.const(0))
            self.vc.prove(state, goal, context + "/aligned")

    def _load(self, state: SymState, addr: T.Term, nbytes: int,
              context: str) -> T.Term:
        self._check_aligned(state, addr, nbytes, context)
        region, concrete, _ = self._resolve(state, addr, nbytes, context)
        byte_terms = []
        for i in range(nbytes):
            if concrete is not None and region.contents is not None:
                byte_terms.append(region.contents[concrete + i])
            else:
                byte_terms.append(self.vc.fresh("%s_ld" % region.name, 8))
        value = byte_terms[0]
        for b in byte_terms[1:]:
            value = T.concat(b, value)
        return T.zext(value, 32)

    def _store(self, state: SymState, addr: T.Term, nbytes: int,
               value: T.Term, context: str) -> None:
        self._check_aligned(state, addr, nbytes, context)
        region, concrete, _ = self._resolve(state, addr, nbytes, context)
        if concrete is not None and region.contents is not None:
            for i in range(nbytes):
                region.contents[concrete + i] = T.extract(value, 8 * i + 7, 8 * i)
        else:
            # Symbolic offset (or already-abstract region): contents unknown.
            region.havoc(self.vc.fresh)

    # -- commands ------------------------------------------------------------

    def run(self, cmd: Cmd, state: SymState, on_exit: Callable[[SymState], None],
            context: str = "") -> None:
        self._exec(cmd, state, on_exit, context)

    def _exec(self, c: Cmd, state: SymState,
              k: Callable[[SymState], None], ctx: str) -> None:
        loc = getattr(c, "loc", None)
        if loc is not None:
            # Builder frame stamp: obligations raised while this command
            # executes are attributed to its eDSL source line.
            self.vc.current_loc = loc
        if isinstance(c, SSkip):
            k(state)
            return
        if isinstance(c, SSet):
            state.locals[c.name] = self.eval_expr(c.value, state, ctx)
            k(state)
            return
        if isinstance(c, SStore):
            addr = self.eval_expr(c.addr, state, ctx)
            value = self.eval_expr(c.value, state, ctx)
            self._store(state, addr, c.size, value, ctx + "/store")
            k(state)
            return
        if isinstance(c, SSeq):
            self._exec(c.first, state, lambda s: self._exec(c.rest, s, k, ctx), ctx)
            return
        if isinstance(c, SIf):
            cond = self.eval_expr(c.cond, state, ctx)
            taken = T.ne(cond, T.const(0))
            if taken is T.TRUE:
                self._exec(c.then_, state, k, ctx + "/then")
                return
            if taken is T.FALSE:
                self._exec(c.else_, state, k, ctx + "/else")
                return
            then_state = state.copy()
            then_state.assume(taken)
            if self._feasible(then_state):
                self._exec(c.then_, then_state, k, ctx + "/then")
            else_state = state
            else_state.assume(T.not_(taken))
            if self._feasible(else_state):
                self._exec(c.else_, else_state, k, ctx + "/else")
            return
        if isinstance(c, SWhile):
            self._exec_while(c, state, k, ctx)
            return
        if isinstance(c, SStackalloc):
            self._exec_stackalloc(c, state, k, ctx)
            return
        if isinstance(c, SCall):
            self._exec_call(c, state, k, ctx)
            return
        if isinstance(c, SInteract):
            args = tuple(self.eval_expr(a, state, ctx) for a in c.args)
            rets = self.ext_spec.apply(self.vc, state, c.action, args,
                                       ctx + "/" + c.action)
            if len(rets) != len(c.binds):
                raise VerificationError(ctx, "external call arity mismatch")
            for name, value in zip(c.binds, rets):
                state.locals[name] = value
            k(state)
            return
        raise TypeError("not a command: %r" % (c,))

    def _feasible(self, state: SymState) -> bool:
        """Whether the path condition is satisfiable; prunes provably dead
        branches so that verification of e.g. error-handling ladders
        stays linear. A path the smart constructors fold to false makes
        no query. Otherwise the solver is offered witnesses: the model
        that settled the parent path (it satisfies one arm of every
        ``if``), this function's `RECENT_MODELS` latest path models, and
        the empty model. The model that shows the path feasible is kept
        on the state and among the recent ones."""
        path = T.and_(*state.path)
        if path is T.FALSE:
            return False
        parent = state.model
        witnesses = [] if parent is None else [parent]
        witnesses.extend(m for m in reversed(self._recent) if m is not parent)
        witnesses.append({})
        result = S.is_satisfiable(path, max_conflicts=self.vc.max_conflicts,
                                  witnesses=witnesses,
                                  blaster=self.vc.blaster)
        if not result.valid:
            return False
        state.model = result.model
        self._recent.append(result.model)
        return True

    # -- loops ----------------------------------------------------------------

    def _exec_while(self, c: SWhile, state: SymState,
                    k: Callable[[SymState], None], ctx: str) -> None:
        spec = c.spec
        if spec is None:
            self._unroll_while(c, state, k, ctx, self.unroll_limit)
            return
        if not isinstance(spec, LoopSpec):
            raise VerificationError(ctx, "loop spec is not a LoopSpec")
        ctx = ctx + "/while[%s]" % spec.tag
        # 1. Invariant holds on entry.
        self.vc.prove(state, spec.invariant(state), ctx + "/inv-init")
        # 2. Havoc the modified state; assume the invariant.
        modified = spec.modified
        if modified is None:
            from .ast_ import modified_vars
            modified = sorted(modified_vars(c.body))
        head = state.copy()
        for name in modified:
            head.locals[name] = self.vc.fresh(name)
        for rname in spec.modified_regions:
            if rname in head.regions:
                head.regions[rname].havoc(self.vc.fresh)
        head.trace = head.trace + [TraceHole(spec.tag)]
        head.assume(spec.invariant(head))
        # 3. One arbitrary iteration re-establishes the invariant and
        #    decreases the measure.
        body_state = head.copy()
        cond = self.eval_expr(c.cond, body_state, ctx)
        taken = T.ne(cond, T.const(0))
        body_state.assume(taken)
        if self._feasible(body_state):
            measure_before = (spec.measure(body_state)
                              if spec.measure is not None else None)
            trace_mark = len(body_state.trace)

            def at_backedge(s: SymState) -> None:
                # Events emitted this iteration must satisfy the filter.
                new_events = s.trace[trace_mark:]
                for event in new_events:
                    if isinstance(event, TraceHole):
                        continue  # inner loop summarized by its own spec
                    if spec.event_filter is not None:
                        spec.event_filter(self.vc, s, event, ctx + "/events")
                self.vc.prove(s, spec.invariant(s), ctx + "/inv-preserved")
                if measure_before is not None:
                    self.vc.prove(s, T.ult(spec.measure(s), measure_before),
                                  ctx + "/measure-decreases")

            self._exec(c.body, body_state, at_backedge, ctx + "/body")
        # 4. Continue after the loop from the havocked head with the
        #    condition false (pruned only when it folds to false: no
        #    solver query).
        exit_state = head
        cond = self.eval_expr(c.cond, exit_state, ctx)
        exit_state.assume(T.eq(cond, T.const(0)))
        if T.and_(*exit_state.path) is not T.FALSE:
            k(exit_state)

    def _unroll_while(self, c: SWhile, state: SymState,
                      k: Callable[[SymState], None], ctx: str,
                      budget: int) -> None:
        if budget <= 0:
            raise VerificationError(
                ctx, "loop did not terminate within the unroll limit; "
                     "attach a LoopSpec")
        cond = self.eval_expr(c.cond, state, ctx)
        taken = T.ne(cond, T.const(0))
        if taken is T.FALSE:
            k(state)
            return
        if taken is T.TRUE:
            self._exec(c.body, state,
                       lambda s: self._unroll_while(c, s, k, ctx, budget - 1),
                       ctx + "/body")
            return
        exit_state = state.copy()
        exit_state.assume(T.not_(taken))
        if self._feasible(exit_state):
            k(exit_state)
        state.assume(taken)
        if self._feasible(state):
            self._exec(c.body, state,
                       lambda s: self._unroll_while(c, s, k, ctx, budget - 1),
                       ctx + "/body")

    # -- allocation & calls ----------------------------------------------------

    def _exec_stackalloc(self, c: SStackalloc, state: SymState,
                         k: Callable[[SymState], None], ctx: str) -> None:
        if c.nbytes % 4 != 0:
            raise VerificationError(ctx, "stackalloc size not word-aligned")
        base = self.vc.fresh("stk_%s" % c.name)
        region_name = "stack_%s_%d" % (c.name, next(self.vc._counter))
        _own_region(state, region_name, base, c.nbytes,
                    [self.vc.fresh("%s_init" % region_name, 8)
                     for _ in range(c.nbytes)])
        state.locals[c.name] = base

        def after(s: SymState) -> None:
            s.regions.pop(region_name, None)
            k(s)

        self._exec(c.body, state, after, ctx + "/stackalloc")

    def _exec_call(self, c: SCall, state: SymState,
                   k: Callable[[SymState], None], ctx: str) -> None:
        spec = self.specs.get(c.func)
        args = tuple(self.eval_expr(a, state, ctx) for a in c.args)
        if spec is not None:
            pctx = ctx + "/call:" + c.func + "/pre/"
            for index, name, size in spec.buffers:
                region = state.regions.get(name)
                if region is None or region.size < size:
                    raise VerificationError(
                        pctx + name + "-is-region",
                        "caller owns no %d-byte region %r" % (size, name))
                self.vc.prove(state, T.eq(args[index], region.base),
                              pctx + name + "-is-region")
            for label, fact in spec.pre(args).items():
                self.vc.prove(state, fact, pctx + label)
            fn = self.program.get(c.func)
            n_rets = len(fn.rets) if fn is not None else len(c.binds)
            rets = tuple(self.vc.fresh("%s_ret" % c.func) for _ in range(n_rets))
            for _, name, _ in spec.buffers:
                state.regions[name].havoc(self.vc.fresh)
            state.trace = state.trace + [TraceHole(c.func)]
            for fact in spec.post(args, rets).values():
                state.assume(fact)
            if len(rets) != len(c.binds):
                raise VerificationError(ctx, "return-arity mismatch")
            for name, value in zip(c.binds, rets):
                state.locals[name] = value
            k(state)
            return
        # No spec: inline the callee (whole-program fallback).
        fn = self.program.get(c.func)
        if fn is None:
            raise VerificationError(ctx, "call to unknown function %r" % c.func)
        if len(args) != len(fn.params) or len(c.binds) != len(fn.rets):
            raise VerificationError(ctx, "arity mismatch calling %r" % c.func)
        saved_locals = state.locals
        state.locals = dict(zip(fn.params, args))

        def after(s: SymState) -> None:
            rets = []
            for name in fn.rets:
                if name not in s.locals:
                    raise VerificationError(ctx, "missing return %r" % name)
                rets.append(s.locals[name])
            s.locals = dict(saved_locals)
            for bind, value in zip(c.binds, rets):
                s.locals[bind] = value
            k(s)

        self._exec(fn.body, state, after, ctx + "/inline:" + c.func)


def _sym_binop(op: str, a: T.Term, b: T.Term) -> T.Term:
    if op == "add":
        return T.add(a, b)
    if op == "sub":
        return T.sub(a, b)
    if op == "mul":
        return T.mul(a, b)
    if op == "mulhuu":
        wide = T.mul(T.zext(a, 64), T.zext(b, 64))
        return T.extract(wide, 63, 32)
    if op == "divu":
        return T.bv_binop("udiv", a, b)
    if op == "remu":
        return T.bv_binop("urem", a, b)
    if op == "and":
        return T.band(a, b)
    if op == "or":
        return T.bor(a, b)
    if op == "xor":
        return T.bxor(a, b)
    if op == "sru":
        return T.lshr(a, T.band(b, T.const(31)))
    if op == "slu":
        return T.shl(a, T.band(b, T.const(31)))
    if op == "srs":
        return T.ashr(a, T.band(b, T.const(31)))
    if op == "lts":
        return T.bool_to_word(T.slt(a, b))
    if op == "ltu":
        return T.bool_to_word(T.ult(a, b))
    if op == "eq":
        return T.bool_to_word(T.eq(a, b))
    raise ValueError("unknown binop %r" % op)


@dataclass
class VerifyReport:
    """Outcome summary of verifying one function.

    ``timeouts`` lists the contexts of obligations whose solver budget
    ran out: those VCs are *unknown*, not proved -- `ok` is False until
    they are re-run with a larger budget.
    """

    function: str
    paths: int
    obligations: int
    timeouts: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.timeouts

    def __str__(self):
        base = ("verified %s: %d paths, %d obligations discharged"
                % (self.function, self.paths, self.obligations))
        if self.timeouts:
            base += " (%d TIMED OUT: %s)" % (len(self.timeouts),
                                             ", ".join(self.timeouts))
        return base


def verify_function(program: Program, fname: str,
                    specs: Dict[str, FunctionSpec], ext_spec,
                    unroll_limit: int = 64,
                    max_conflicts: int = 2_000_000,
                    prescreen: Optional[Callable[[SymState, T.Term], bool]] = None,
                    ) -> VerifyReport:
    """Verify ``program[fname]`` against ``specs[fname]``.

    The body owns the spec's buffers and assumes its precondition; every
    feasible symbolic path is explored, and at each exit the
    postcondition is proved, then the spec's ``on_exit`` hook runs. Calls
    to functions in ``specs`` use their specs (see `FunctionSpec`); other
    callees are inlined. Raises `VerificationError` on any failed
    obligation; budget-exceeded obligations are reported per VC in
    ``VerifyReport.timeouts`` (see `VC`). ``prescreen`` is forwarded to
    `VC` (see there for the soundness contract).
    """
    spec = specs[fname]
    fn = program[fname]
    vc = VC(max_conflicts=max_conflicts, prescreen=prescreen,
            function=fname)
    state = SymState()
    args = tuple(vc.fresh(p) for p in fn.params)
    state.locals = dict(zip(fn.params, args))
    with obs.span("verify." + fname, cat="vcgen") as sp:
        for index, name, size in spec.buffers:
            _own_region(state, name, args[index], size,
                        [vc.fresh("%s_b%d" % (name, i), 8)
                         for i in range(size)])
        for fact in spec.pre(args).values():
            state.assume(fact)
        executor = SymExec(program, vc, ext_spec, specs=specs,
                           unroll_limit=unroll_limit)
        paths = [0]

        def on_exit(final: SymState) -> None:
            paths[0] += 1
            # Postcondition obligations belong to the spec, not to
            # whichever statement happened to execute last on the path.
            vc.current_loc = None
            for name in fn.rets:
                if name not in final.locals:
                    raise VerificationError(fname,
                                            "missing return variable %r" % name)
            rets = tuple(final.locals[name] for name in fn.rets)
            for label, fact in spec.post(args, rets).items():
                vc.prove(final, fact, "%s/post-%s" % (fname, label))
            if spec.on_exit is not None:
                spec.on_exit(vc, final, args, rets)

        executor.run(fn.body, state, on_exit, context=fname)
        sp.set("paths", paths[0])
        sp.set("obligations", vc.obligations_proved)
    _FUNCTIONS.inc()
    _PATHS.inc(paths[0])
    return VerifyReport(fname, paths[0], vc.obligations_proved,
                        tuple(vc.timeouts))
