"""Static WCET and stack-bound analysis over recovered RV32IM CFGs.

The paper's headline number is a *measured* latency; this module proves
the matching static claims: a worst-case execution time (in successful
pipeline-rule firings, the repo's cycle currency -- see
`repro.analysis.costmodel`) and a stack high-water bound, both derived
from nothing but the compiled image and its symbol table.

The analysis is classic aiT-style abstract-interpretation WCET, sized
for this compiler's output:

1. **Loop bounds.**  Natural loops are found via dominators.  The eDSL
   only emits fuel-counter loops -- ``i := K; while i { ...; i := i - 1 }``
   (with optional ``i := 0`` early exits) -- so bounds come from two
   facts the binary analysis already proves: the interval upper bound of
   the test register on loop entry (from `repro.analysis.binlint`'s
   stabilized states) and a decrement-by-one proof along every acyclic
   back-edge path.  The proof walks each path with binlint's own
   transfer (`step_instr`, `step_call`) from the header's stabilized
   state, in which every register but sp and every tracked frame slot
   is a symbol for its value at header entry, so it sees through
   copies, stack spills (far-path frames included) and calls
   (callee-saved discipline is binlint's B2A1xx obligation).  Loops the
   walk cannot bound (e.g. the LAN9250 drain loop, bounded by a
   data-dependent word count) accept committed flow-fact annotations
   from ``timing-budgets.json``.
2. **Costs.**  Per-block cost is ``base_cpi * instructions`` plus the
   full mispredict penalty on every control-transfer terminator (the BTB
   starts cold and is never assumed trained).  Loops collapse innermost
   first -- ``(bound + 1) * worst internal path`` -- then the function
   body is a DAG and WCET is its longest path; calls add the callee's
   WCET, callees are processed in reverse call-graph order, and a
   recursive cycle is rejected, for time and stack, by one B2A202.
3. **Server programs.**  The shipped apps never terminate: ``main`` ends
   in an exit-less event loop.  Such a loop is collapsed into a terminal
   node, splitting the claim into a *startup* WCET (entry to loop
   header) and a *per-iteration* WCET, each budgeted separately.  The
   ``jal x0, .`` halt spin is the other terminal: programs that return
   (every fuzz program) get a plain whole-program WCET to halt.
4. **Stack.**  Binlint's states give the stack pointer as an exact
   entry-relative offset at every pc; the per-function maximum is the
   frame, and the deepest call-graph path, summed in the same
   callees-first pass, gives the program bound, cross-checkable against
   the compiler's own ``stack_bound`` metadata.

Findings use codes B2A201 (loop/control not provably bounded), B2A202
(recursion), B2A203 (WCET over budget), B2A204 (stack bound over budget
or not provable) and B2A205 (cost-model drift vs the live pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .. import obs
from ..logic.intervals import MASK
from .binlint import (ARG_REGS, SCRATCH_REGS, STORE_SIZES, AVal, BinState,
                      BinaryLintConfig, FunctionAnalysis, ImageAnalysis,
                      _aval_sub, _init, _plain, _signed, _top,
                      analyze_image, step_call, step_instr)
from .cfg import RA, SP, BasicBlock, BinFunction, BinaryCFG, call_graph
from .costmodel import CostModel, check_pipeline_drift, pipeline_cost_model
from .lint import Diagnostic

_FUNCTIONS = obs.counter("analysis.wcet_functions")
_LOOPS = obs.counter("analysis.wcet_loops")
_LOOPS_BOUNDED = obs.counter("analysis.wcet_loops_bounded")

#: Control-transfer terminator kinds that pay the mispredict penalty.
CT_KINDS = frozenset(("branch", "jump", "call", "return", "indirect"))

#: Loop-bound provenance values.
INFERRED = "inferred"
ANNOTATED = "annotated"
SERVER = "server"
SPIN = "spin"
UNBOUNDED = "unbounded"

#: Inferred bounds above this are treated as not-a-bound: a widened
#: interval proves "at most 2**32 iterations", which is never the fuel
#: idiom and would only hide a missing annotation.
MAX_INFERRED_BOUND = 1 << 20
#: Cap on acyclic back-edge paths enumerated per loop.
MAX_PATHS = 128


# ---------------------------------------------------------------------------
# Configuration and results


@dataclass(frozen=True)
class TimingConfig:
    """Everything the analyzer is parameterized by: the platform memory
    map (for the underlying binlint fixpoint), the calibrated cost
    model, and committed flow-fact loop bounds keyed by function name
    and per-function loop ordinal (loops sorted by header pc)."""

    lint: BinaryLintConfig
    model: CostModel
    loop_bounds: Mapping[str, Mapping[int, int]] = \
        field(default_factory=dict)

    def annotated(self, function: str, ordinal: int) -> Optional[int]:
        return dict(self.loop_bounds.get(function, {})).get(ordinal)


@dataclass
class LoopTiming:
    """One natural loop's verdict."""

    function: str
    ordinal: int
    header: int
    bound: Optional[int]
    source: str  # inferred | annotated | server | spin | unbounded
    iteration_cycles: Optional[int]
    total_cycles: Optional[int]

    def to_json(self) -> Dict[str, object]:
        return {"function": self.function, "ordinal": self.ordinal,
                "header": self.header, "bound": self.bound,
                "source": self.source,
                "iteration_cycles": self.iteration_cycles,
                "total_cycles": self.total_cycles}


@dataclass
class FunctionTiming:
    """Per-function bounds. ``wcet_cycles`` is entry to return (or halt
    spin); server functions carry ``startup``/``iteration`` instead."""

    name: str
    wcet_cycles: Optional[int]
    startup_cycles: Optional[int]
    iteration_cycles: Optional[int]
    frame_bytes: Optional[int]
    total_stack_bytes: Optional[int]
    loops: List[LoopTiming] = field(default_factory=list)

    @property
    def is_server(self) -> bool:
        return self.startup_cycles is not None

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name, "wcet_cycles": self.wcet_cycles,
                "startup_cycles": self.startup_cycles,
                "iteration_cycles": self.iteration_cycles,
                "frame_bytes": self.frame_bytes,
                "total_stack_bytes": self.total_stack_bytes,
                "loops": [lp.to_json() for lp in self.loops]}


@dataclass
class TimingReport:
    """The whole-program verdict: either a terminating program with one
    ``wcet_cycles`` number, or a server program with ``startup_cycles``
    plus ``iteration_cycles``.  ``fill_cycles`` is the cold-start icache
    fill the deployment adds on top (it depends on the icache size, not
    the binary)."""

    entry: str
    model: CostModel
    functions: Dict[str, FunctionTiming]
    wcet_cycles: Optional[int]
    startup_cycles: Optional[int]
    iteration_cycles: Optional[int]
    fill_cycles: int
    stack_bound: Optional[int]
    compiler_stack_bound: Optional[int]
    findings: List[Diagnostic] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "entry": self.entry,
            "model": self.model.to_json(),
            "wcet_cycles": self.wcet_cycles,
            "startup_cycles": self.startup_cycles,
            "iteration_cycles": self.iteration_cycles,
            "fill_cycles": self.fill_cycles,
            "stack_bound": self.stack_bound,
            "compiler_stack_bound": self.compiler_stack_bound,
            "functions": {name: fn.to_json()
                          for name, fn in sorted(self.functions.items())},
            "findings": [d.to_json() for d in self.findings],
        }


# ---------------------------------------------------------------------------
# Natural loops


@dataclass
class _Loop:
    header: int
    blocks: FrozenSet[int]
    exits: Tuple[Tuple[int, int], ...]  # (src, dst) edges leaving the loop


def _reachable(fn: BinFunction, analysis: FunctionAnalysis) -> Set[int]:
    """Blocks the binlint fixpoint actually reached.  Using semantic
    (not just structural) reachability matters twice over: dead branches
    -- ``if (0)`` arms, the epilogue after a ``while (1)`` -- must not
    contribute phantom WCET paths, and a dead loop must not be mistaken
    for a server loop."""
    seen: Set[int] = set()
    stack = [fn.entry]
    while stack:
        b = stack.pop()
        if b in seen or b not in fn.blocks:
            continue
        if analysis.states.get(fn.blocks[b].instrs[0][0]) is None:
            continue
        seen.add(b)
        stack.extend(fn.blocks[b].succs)
    return seen


def _preds_of(fn: BinFunction, nodes: Set[int]) -> Dict[int, Set[int]]:
    preds: Dict[int, Set[int]] = {n: set() for n in nodes}
    for n in nodes:
        for s in fn.blocks[n].succs:
            if s in nodes:
                preds[s].add(n)
    return preds


def _dominators(fn: BinFunction, nodes: Set[int],
                preds: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    """Iterative set-based dominator fixpoint (functions are small)."""
    order: List[int] = []
    seen: Set[int] = set()

    def visit(b: int) -> None:
        stack = [(b, iter(fn.blocks[b].succs))]
        seen.add(b)
        while stack:
            node, it = stack[-1]
            advanced = False
            for s in it:
                if s in nodes and s not in seen:
                    seen.add(s)
                    stack.append((s, iter(fn.blocks[s].succs)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(fn.entry)
    rpo = list(reversed(order))
    dom: Dict[int, Set[int]] = {n: set(nodes) for n in nodes}
    dom[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for n in rpo:
            if n == fn.entry:
                continue
            ps = [dom[p] for p in preds[n]]
            new = set.intersection(*ps) if ps else set()
            new = new | {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def _natural_loops(fn: BinFunction, nodes: Set[int],
                   preds: Dict[int, Set[int]],
                   dom: Dict[int, Set[int]]) -> List[_Loop]:
    bodies: Dict[int, Set[int]] = {}
    for u in nodes:
        for h in fn.blocks[u].succs:
            if h in nodes and h in dom[u]:  # back edge u -> h
                body = bodies.setdefault(h, {h})
                stack = [u]
                while stack:
                    b = stack.pop()
                    if b in body:
                        continue
                    body.add(b)
                    stack.extend(p for p in preds[b])
    loops = []
    for h, body in bodies.items():
        exits = tuple(sorted(
            (src, dst) for src in body
            for dst in fn.blocks[src].succs
            if dst in nodes and dst not in body))
        loops.append(_Loop(header=h, blocks=frozenset(body), exits=exits))
    loops.sort(key=lambda lp: (len(lp.blocks), lp.header))
    return loops


def _is_spin(fn: BinFunction, loop: _Loop) -> bool:
    """The halt idiom: a single ``jal x0, .`` block jumping to itself."""
    if len(loop.blocks) != 1 or loop.exits:
        return False
    block = fn.blocks[loop.header]
    return (block.kind == "jump" and block.target == block.start
            and len(block.instrs) == 1)


# ---------------------------------------------------------------------------
# Block transfer: binlint's, for stabilized and symbolic states alike


def _step_block(cfg: BinaryCFG, block: BasicBlock,
                state: BinState) -> BinState:
    """The state after ``block``, by binlint's instruction and call
    transfers (without its branch refinement)."""
    for pc, instr in block.instrs:
        state = step_instr(pc, instr, state)
    if block.kind == "call":
        state = step_call(cfg, block, state)
    return state


# ---------------------------------------------------------------------------
# Loop bound inference


@dataclass
class _LoopSummary:
    """A processed loop, ready to be collapsed into a super-node."""

    loop: _Loop
    bound: Optional[int]
    source: str
    iteration: Optional[int]  # worst internal path, firings
    total: Optional[int]  # (bound + 1) * iteration
    writes: FrozenSet[int]  # registers the loop may modify
    #: Frame byte ranges the loop may store to, as (offset, size) pairs
    #: relative to the function's stable post-prologue sp; None when sp
    #: itself moves inside the loop and offsets are incomparable.
    sp_stores: Optional[FrozenSet[Tuple[int, int]]]


def _loop_writes(fn: BinFunction, loop: _Loop
                 ) -> Tuple[FrozenSet[int], Optional[FrozenSet[Tuple[int,
                                                                     int]]]]:
    writes: Set[int] = set()
    stores: Set[Tuple[int, int]] = set()
    sp_moves = False
    for b in loop.blocks:
        block = fn.blocks[b]
        for _, instr in block.instrs:
            if instr.name in STORE_SIZES:
                if instr.rs1 == SP:
                    stores.add((_signed((instr.imm or 0) & MASK),
                                STORE_SIZES[instr.name]))
                # Non-sp stores never alias the frame (binlint's checked
                # store discipline).
            elif instr.rd:
                writes.add(instr.rd)
                sp_moves = sp_moves or instr.rd == SP
        if block.kind == "call":
            writes.update(ARG_REGS + SCRATCH_REGS + (RA,))
    return (frozenset(writes - {0}),
            None if sp_moves else frozenset(stores))


def _exit_test(fn: BinFunction, loop: _Loop,
               exits: Tuple[Tuple[int, int], ...]
               ) -> Optional[Tuple[int, int]]:
    """``(test_reg, body_succ)`` when the loop is a single-exit header
    test of the fuel shape: ``beq rt, x0, out`` / ``bne rt, x0, in``."""
    if not exits or any(src != loop.header for src, _ in exits):
        return None
    header = fn.blocks[loop.header]
    if header.kind != "branch":
        return None
    _, term = header.terminator
    if term.name not in ("beq", "bne"):
        return None
    if term.rs2 == 0 and term.rs1 not in (None, 0):
        rt = term.rs1
    elif term.rs1 == 0 and term.rs2 not in (None, 0):
        rt = term.rs2
    else:
        return None
    in_succs = [s for s in header.succs if s in loop.blocks]
    out_succs = [s for s in header.succs if s not in loop.blocks]
    if len(in_succs) != 1 or not out_succs:
        return None
    target = header.target
    taken_in = target in loop.blocks
    # Exit must be on the ==0 side: beq exits when taken, bne when not.
    exit_on_zero = (not taken_in) if term.name == "beq" else taken_in
    if not exit_on_zero:
        return None
    assert rt is not None
    return rt, in_succs[0]


def _entry_bound(fn: BinFunction, loop: _Loop, rt: int,
                 analysis: FunctionAnalysis, cfg: BinaryCFG,
                 preds: Dict[int, Set[int]]) -> Optional[int]:
    """Unsigned upper bound of the test register at first loop entry,
    from the stabilized preheader in-states pushed through the preheader
    and the header."""
    best: Optional[int] = None
    preheaders = [p for p in preds.get(loop.header, set())
                  if p not in loop.blocks]
    if not preheaders:
        return None
    for p in preheaders:
        state = analysis.states.get(p)
        if state is None:
            continue  # unreachable preheader constrains nothing
        for b in (p, loop.header):
            state = _step_block(cfg, fn.blocks[b], state)
        w = _plain(state.regs[rt])
        if w.hi > MAX_INFERRED_BOUND:
            return None
        best = w.hi if best is None else max(best, w.hi)
    return best


def _header_symbols(state: BinState) -> BinState:
    """Where a back-edge walk starts: binlint's stabilized state at the
    loop header, with sp kept (frame slots are keyed by offsets from
    it) and every other register and every tracked frame slot replaced
    by a symbol for its own value at header entry."""
    regs = tuple(v if r in (0, SP) else _init(r)
                 for r, v in enumerate(state.regs))
    slots = {off: _init(("slot", off)) for off in state.slots}
    return BinState(regs=regs, slots=slots, defined=state.defined)


def _past_inner(state: BinState, summary: _LoopSummary) -> BinState:
    """The walk's state after an inner loop: the registers it writes
    and the frame words it may store to are unknown."""
    regs = tuple(_top() if r in summary.writes else v
                 for r, v in enumerate(state.regs))
    sp, stores = state.regs[SP], summary.sp_stores
    slots: Dict[int, AVal] = {}
    if stores is not None and sp.base == SP and sp.word.is_const():
        # Kill only the words the inner loop's stores can overlap; the
        # outer counter's spill slot survives untouched.
        at = _signed(sp.word.lo)
        slots = {k: v for k, v in state.slots.items()
                 if not any(k < at + off + size and at + off < k + 4
                            for off, size in stores)}
    return BinState(regs=regs, slots=slots, defined=state.defined)


def _decrement_holds(fn: BinFunction, loop: _Loop, rt: int, body: int,
                     inner: Dict[int, _LoopSummary],
                     analysis: FunctionAnalysis, cfg: BinaryCFG) -> bool:
    """Every acyclic back-edge path must leave the next header test at
    ``previous - 1`` (same symbolic base) or at the constant 0."""
    header = fn.blocks[loop.header]
    start = _step_block(cfg, header,
                        _header_symbols(analysis.states[header.start]))
    rt0 = start.regs[rt]
    budget = [MAX_PATHS]

    def finish(st: BinState) -> bool:
        rt1 = _step_block(cfg, header, st).regs[rt]
        if rt1.base is None:
            return rt1.word.as_const() == 0
        step = _aval_sub(rt0, rt1)
        return step.base is None and step.word.as_const() == 1

    def walk(b: int, st: BinState, on_path: FrozenSet[int]) -> bool:
        if budget[0] <= 0:
            return False
        if b == loop.header:
            budget[0] -= 1
            return finish(st)
        if b not in loop.blocks or b in on_path:
            # Left the loop (exit paths impose nothing) or met a cycle
            # not passing the header (irreducible: give up).
            if b in on_path:
                budget[0] = 0
                return False
            budget[0] -= 1
            return True
        summary = inner.get(b)
        if summary is not None:
            env = _past_inner(st, summary)
            dests = {dst for _, dst in summary.loop.exits}
            return all(walk(d, env, on_path | summary.loop.blocks)
                       for d in sorted(dests))
        block = fn.blocks[b]
        if not block.succs:
            budget[0] -= 1
            return True  # dead end: no back edge taken on this path
        env = _step_block(cfg, block, st)
        return all(walk(s, env, on_path | {b}) for s in block.succs)

    # The header's own terminator state applies to the body successor.
    ok = walk(body, start, frozenset({loop.header}))
    return ok and budget[0] > 0


# ---------------------------------------------------------------------------
# Per-function WCET


def _node_cost(fn: BinFunction, b: int, model: CostModel,
               cfg: BinaryCFG,
               done: Mapping[str, FunctionTiming]) -> Optional[int]:
    """Firings to retire block ``b`` once, including a called function's
    WCET; None when not statically bounded."""
    block = fn.blocks[b]
    cost = model.block_cost(len(block.instrs), block.kind in CT_KINDS)
    if block.kind == "call":
        callee = cfg.entries.get(block.target or -1)
        if callee is None:
            return None
        timing = done.get(callee)
        if timing is None or timing.wcet_cycles is None:
            return None
        cost += timing.wcet_cycles
    return cost


def _callee_of(fn: BinFunction, b: int, cfg: BinaryCFG) -> Optional[str]:
    block = fn.blocks[b]
    if block.kind != "call":
        return None
    return cfg.entries.get(block.target or -1)


@dataclass
class _PathVal:
    """Longest-path result from one node: cost to a return/halt
    terminal (None when unreachable), cost to a server terminal (None
    when none), worst reachable server iteration, and whether any
    reachable path is unbounded."""

    ret: Optional[int] = None
    srv: Optional[int] = None
    iter_: Optional[int] = None
    unbounded: bool = False


def _max_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _shift(v: Optional[int], by: int) -> Optional[int]:
    return None if v is None else v + by


class _FunctionWcet:
    """Collapses loops innermost-first, then takes DAG longest paths."""

    def __init__(self, fn: BinFunction, analysis: FunctionAnalysis,
                 cfg: BinaryCFG, config: TimingConfig,
                 done: Mapping[str, FunctionTiming],
                 findings: List[Diagnostic]):
        self.fn = fn
        self.analysis = analysis
        self.cfg = cfg
        self.config = config
        self.done = done
        self.findings = findings
        self.nodes = _reachable(fn, analysis)
        self.preds = _preds_of(fn, self.nodes)
        self.loops: List[_Loop] = []
        self.summaries: Dict[int, _LoopSummary] = {}
        self.loop_rows: List[LoopTiming] = []

    def _report(self, code: str, message: str) -> None:
        diag = Diagnostic(code=code, function=self.fn.name, message=message)
        if not self.config.lint.suppressed(diag):
            self.findings.append(diag)

    # -- loops ----------------------------------------------------------

    def _live_exits(self, loop: _Loop) -> Tuple[Tuple[int, int], ...]:
        """Exit edges whose destination binlint's fixpoint reached.  A
        ``while (1)`` compiles to a real conditional on a constant-1
        register, so its exit edge exists structurally but the exit
        block is unreachable in the stabilized states -- dropping such
        edges is what turns the event loop into a server loop."""
        return tuple(
            (src, dst) for src, dst in loop.exits
            if self.analysis.states.get(
                self.fn.blocks[dst].instrs[0][0]) is not None)

    def _bound_loop(self, loop: _Loop, ordinal: int,
                    inner: Dict[int, _LoopSummary]
                    ) -> Tuple[Optional[int], str]:
        if _is_spin(self.fn, loop):
            return None, SPIN
        annotated = self.config.annotated(self.fn.name, ordinal)
        if annotated is not None:
            return annotated, ANNOTATED
        live = self._live_exits(loop)
        if not live:
            return None, SERVER
        test = _exit_test(self.fn, loop, live)
        if test is None:
            return None, UNBOUNDED
        rt, body = test
        bound = _entry_bound(self.fn, loop, rt, self.analysis, self.cfg,
                             self.preds)
        if bound is None:
            return None, UNBOUNDED
        if bound == 0:
            return 0, INFERRED  # zero-trip: never entered
        if not _decrement_holds(self.fn, loop, rt, body, inner,
                                self.analysis, self.cfg):
            return None, UNBOUNDED
        return bound, INFERRED

    def _iteration_cost(self, loop: _Loop,
                        inner: Dict[int, _LoopSummary]) -> Optional[int]:
        """Longest acyclic path from the header through the loop body
        (back to the header or out of an exit), per iteration."""
        memo: Dict[int, Optional[int]] = {}
        on_stack: Set[int] = set()

        def walk(b: int) -> Optional[int]:
            if b in memo:
                return memo[b]
            if b in on_stack:
                return None  # irreducible cycle: not bounded
            on_stack.add(b)
            summary = inner.get(b)
            if summary is not None and b != loop.header:
                cost = summary.total
                dests = {dst for _, dst in summary.loop.exits
                         if dst in loop.blocks and dst != loop.header}
            else:
                # A never-returning (server) callee inside the loop
                # comes back None from _node_cost: the iteration cannot
                # complete, which is exactly what None means here.
                cost = _node_cost(self.fn, b, self.config.model, self.cfg,
                                  self.done)
                dests = {s for s in self.fn.blocks[b].succs
                         if s in loop.blocks and s != loop.header}
            out: Optional[int]
            if cost is None:
                out = None
            else:
                best = 0
                for d in sorted(dests):
                    sub = walk(d)
                    if sub is None:
                        best = -1
                        break
                    best = max(best, sub)
                out = None if best < 0 else cost + best
            on_stack.discard(b)
            memo[b] = out
            return out

        return walk(loop.header)

    def _process_loops(self) -> None:
        dom = _dominators(self.fn, self.nodes, self.preds)
        self.loops = _natural_loops(self.fn, self.nodes, self.preds, dom)
        by_header = sorted(self.loops, key=lambda lp: lp.header)
        ordinals = {lp.header: i for i, lp in enumerate(by_header)}
        for loop in self.loops:  # innermost first (sorted by size)
            _LOOPS.inc()
            inner = {h: s for h, s in self.summaries.items()
                     if h in loop.blocks and h != loop.header}
            ordinal = ordinals[loop.header]
            bound, source = self._bound_loop(loop, ordinal, inner)
            iteration = self._iteration_cost(loop, inner)
            if source == SPIN:
                total: Optional[int] = 0
            elif bound is None or iteration is None:
                total = None
            else:
                total = (bound + 1) * iteration
            if source == UNBOUNDED:
                self._report(
                    "B2A201",
                    "loop at 0x%04x (ordinal %d): iteration bound not "
                    "inferred and no flow-fact annotation committed"
                    % (loop.header, ordinal))
            elif bound is not None:
                _LOOPS_BOUNDED.inc()
            writes, sp_stores = _loop_writes(self.fn, loop)
            self.summaries[loop.header] = _LoopSummary(
                loop=loop, bound=bound, source=source, iteration=iteration,
                total=total, writes=writes, sp_stores=sp_stores)
            self.loop_rows.append(LoopTiming(
                function=self.fn.name, ordinal=ordinal, header=loop.header,
                bound=bound, source=source, iteration_cycles=iteration,
                total_cycles=total))
        self.loop_rows.sort(key=lambda row: row.ordinal)

    # -- whole function -------------------------------------------------

    def _outermost(self) -> Dict[int, _LoopSummary]:
        """block start -> the outermost loop containing it."""
        out: Dict[int, _LoopSummary] = {}
        for loop in sorted(self.loops, key=lambda lp: -len(lp.blocks)):
            summary = self.summaries[loop.header]
            for b in loop.blocks:
                out.setdefault(b, summary)
        return out

    def run(self) -> FunctionTiming:
        _FUNCTIONS.inc()
        self._process_loops()
        outermost = self._outermost()
        memo: Dict[int, _PathVal] = {}
        on_stack: Set[int] = set()

        def walk(b: int) -> _PathVal:
            if b in memo:
                return memo[b]
            if b in on_stack:
                return _PathVal(unbounded=True)
            on_stack.add(b)
            val = self._walk_node(b, outermost, walk)
            on_stack.discard(b)
            memo[b] = val
            return val

        entry = walk(self.fn.entry)
        if entry.unbounded and entry.srv is None:
            # Per-loop B2A201s already explain bounded-loop failures;
            # cover the structural cases (fall-off, indirect, callee).
            self._report(
                "B2A201", "whole-function WCET is not statically bounded")
        wcet = None if entry.unbounded else entry.ret
        startup = entry.srv
        iteration = entry.iter_
        if entry.unbounded:
            startup = iteration = None
        return FunctionTiming(
            name=self.fn.name, wcet_cycles=wcet, startup_cycles=startup,
            iteration_cycles=iteration, frame_bytes=None,
            total_stack_bytes=None, loops=self.loop_rows)

    def _walk_node(self, b: int, outermost: Dict[int, _LoopSummary],
                   walk) -> _PathVal:
        summary = outermost.get(b)
        if summary is not None:
            if b != summary.loop.header:
                return _PathVal(unbounded=True)  # irreducible entry
            if summary.source == SPIN:
                return _PathVal(ret=0)
            if summary.source == SERVER:
                if summary.iteration is None:
                    return _PathVal(unbounded=True)
                return _PathVal(srv=0, iter_=summary.iteration)
            if summary.total is None:
                return _PathVal(unbounded=True)
            out = _PathVal()
            for _, dst in summary.loop.exits:
                if dst not in self.nodes:
                    continue
                sub = walk(dst)
                out.ret = _max_opt(out.ret, sub.ret)
                out.srv = _max_opt(out.srv, sub.srv)
                out.iter_ = _max_opt(out.iter_, sub.iter_)
                out.unbounded = out.unbounded or sub.unbounded
            out.ret = _shift(out.ret, summary.total)
            out.srv = _shift(out.srv, summary.total)
            return out

        block = self.fn.blocks[b]
        cost = self.config.model.block_cost(len(block.instrs),
                                            block.kind in CT_KINDS)
        if block.kind == "call":
            callee = _callee_of(self.fn, b, self.cfg)
            timing = self.done.get(callee) if callee else None
            if timing is None:
                return _PathVal(unbounded=True)
            if timing.is_server:
                if timing.wcet_cycles is not None:
                    # A callee that may return *or* serve forever is not
                    # something this collapse can price; reject it.
                    return _PathVal(unbounded=True)
                # The call never returns: this node is a server terminal.
                assert timing.startup_cycles is not None
                return _PathVal(srv=cost + timing.startup_cycles,
                                iter_=timing.iteration_cycles)
            if timing.wcet_cycles is None:
                return _PathVal(unbounded=True)
            cost += timing.wcet_cycles
        if block.kind == "return":
            return _PathVal(ret=cost)
        if block.kind == "indirect":
            return _PathVal(unbounded=True)
        succs = [s for s in block.succs if s in self.nodes]
        if not succs:
            # Fall-off / invalid target: control leaves the model.
            return _PathVal(unbounded=True)
        out = _PathVal()
        for s in succs:
            sub = walk(s)
            out.ret = _max_opt(out.ret, sub.ret)
            out.srv = _max_opt(out.srv, sub.srv)
            out.iter_ = _max_opt(out.iter_, sub.iter_)
            out.unbounded = out.unbounded or sub.unbounded
        out.ret = _shift(out.ret, cost)
        out.srv = _shift(out.srv, cost)
        return out


# ---------------------------------------------------------------------------
# Stack bounds


def _frame_bytes(analysis: FunctionAnalysis, stack_top: int
                 ) -> Optional[int]:
    """Deepest provable sp excursion below the entry sp (or below
    ``stack_top`` once sp is absolute, as in ``_start``)."""
    depth = 0
    for state in analysis.states.values():
        v = state.regs[SP]
        if v.base == SP and v.word.is_const():
            depth = max(depth, -_signed(v.word.lo))
        elif v.base is None and v.word.is_const():
            depth = max(depth, stack_top - v.word.lo)
        else:
            return None
    return depth


# ---------------------------------------------------------------------------
# Driver


def _topo_functions(graph: Mapping[str, Set[str]],
                    findings: List[Diagnostic],
                    config: TimingConfig) -> List[str]:
    """Callees-first order; each call-graph cycle is reported once
    (B2A202), where the walk closes it.  A cycle member's callee on the
    cycle comes after it, so the member's time and stack are unbounded
    and so are those of every caller."""
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            diag = Diagnostic(
                code="B2A202", function=name,
                message="recursive call cycle: no static WCET or "
                        "stack bound")
            if not config.lint.suppressed(diag):
                findings.append(diag)
            return
        state[name] = 1
        for callee in sorted(graph.get(name, set())):
            visit(callee)
        state[name] = 2
        order.append(name)

    for name in sorted(graph):
        visit(name)
    return order


def analyze_timing(compiled: object,
                   config: Optional[TimingConfig] = None,
                   icache_words: Optional[int] = None,
                   analyses: Optional[ImageAnalysis] = None) -> TimingReport:
    """Prove WCET and stack bounds for a compiled program.

    ``compiled`` is any `repro.compiler.CompiledProgram`-shaped object
    (``image``, ``symbols``, ``stack_top``; ``stack_bound`` is used for
    the compiler cross-check when present). ``analyses`` is this image's
    `analyze_image` result, when the caller already has one; otherwise
    it is computed here under ``config.lint``.
    """
    image: bytes = compiled.image  # type: ignore[attr-defined]
    symbols: Mapping[str, int] = compiled.symbols  # type: ignore[attr-defined]
    stack_top: int = compiled.stack_top  # type: ignore[attr-defined]
    if config is None:
        config = TimingConfig(lint=BinaryLintConfig(ram=(0, stack_top)),
                              model=pipeline_cost_model())
    findings: List[Diagnostic] = []
    if analyses is None:
        analyses = analyze_image(image, symbols, config.lint)
    cfg = analyses.cfg
    graph = call_graph(cfg)
    order = _topo_functions(graph, findings, config)

    done: Dict[str, FunctionTiming] = {}
    results: Dict[str, FunctionTiming] = {}
    totals: Dict[str, Optional[int]] = {}  # frame + deepest callee stack
    for name in order:
        analysis = analyses.get(name)
        fn = cfg.functions.get(name)
        if analysis is None or fn is None or not fn.blocks:
            continue
        timing = _FunctionWcet(fn, analysis, cfg, config, done,
                               findings).run()
        frame = _frame_bytes(analysis, stack_top)
        deepest: Optional[int] = 0
        for callee in graph.get(name, set()):
            # Callees come first: one still absent closes a cycle or
            # was not analyzed, and bounds nothing.
            sub = totals.get(callee)
            deepest = None if (deepest is None or sub is None) \
                else max(deepest, sub)
        totals[name] = None if (frame is None or deepest is None) \
            else frame + deepest
        timing.frame_bytes = frame
        timing.total_stack_bytes = totals[name]
        results[name] = timing
        if timing.wcet_cycles is not None or timing.is_server:
            done[name] = timing

    entry = "_start" if "_start" in results else \
        (cfg.entries.get(0) or "_start")
    # The program-level claim is about code the entry can execute:
    # findings in linked-but-unreachable functions (e.g. the bounded
    # `*_service` harness variants, parametric in an argument no caller
    # in this image supplies) stay visible as unbounded loop rows but do
    # not fail the program.  Everything reachable must prove.
    live = {entry, "<pipeline>"}
    stack = [entry]
    while stack:
        name = stack.pop()
        for callee in graph.get(name, set()):
            if callee not in live:
                live.add(callee)
                stack.append(callee)
    findings = [d for d in findings if d.function in live]
    top = results.get(entry)
    wcet = top.wcet_cycles if top else None
    startup = top.startup_cycles if top else None
    iteration = top.iteration_cycles if top else None
    stack_bound = totals.get(entry)
    if top is None:
        findings.append(Diagnostic(
            code="B2A201", function=entry,
            message="program entry was not analyzed"))
    if icache_words is None:
        icache_words = (len(image) + 3) // 4
    return TimingReport(
        entry=entry, model=config.model, functions=results,
        wcet_cycles=wcet, startup_cycles=startup,
        iteration_cycles=iteration,
        fill_cycles=config.model.fill_cost(icache_words),
        stack_bound=stack_bound,
        compiler_stack_bound=getattr(compiled, "stack_bound", None),
        findings=findings)


# ---------------------------------------------------------------------------
# Budgets and drift (the `lint --binary --timing` surface)


def check_budgets(report: TimingReport,
                  budgets: Mapping[str, int]) -> List[Diagnostic]:
    """Compare proved bounds to committed per-app budgets.  Keys:
    ``wcet_cycles``, ``startup_cycles``, ``iteration_cycles`` (B2A203)
    and ``stack_bytes`` (B2A204).  A budgeted-but-unproved bound is a
    finding too: the budget is a claim the analyzer must back."""
    out: List[Diagnostic] = []
    cycle_axes = (("wcet_cycles", report.wcet_cycles),
                  ("startup_cycles", report.startup_cycles),
                  ("iteration_cycles", report.iteration_cycles))
    for key, actual in cycle_axes:
        budget = budgets.get(key)
        if budget is None:
            continue
        if actual is None:
            out.append(Diagnostic(
                code="B2A203", function=report.entry,
                message="%s has budget %d but no bound was proved"
                        % (key, budget)))
        elif actual > budget:
            out.append(Diagnostic(
                code="B2A203", function=report.entry,
                message="%s bound %d exceeds budget %d (margin %+d)"
                        % (key, actual, budget, budget - actual)))
    stack_budget = budgets.get("stack_bytes")
    if stack_budget is not None:
        if report.stack_bound is None:
            out.append(Diagnostic(
                code="B2A204", function=report.entry,
                message="stack budget %d committed but no bound was "
                        "proved" % stack_budget))
        elif report.stack_bound > stack_budget:
            out.append(Diagnostic(
                code="B2A204", function=report.entry,
                message="stack bound %d exceeds budget %d bytes"
                        % (report.stack_bound, stack_budget)))
    return out


def drift_findings(model: Optional[CostModel] = None) -> List[Diagnostic]:
    """B2A205: the cost model no longer matches `kami.pipeline_proc`."""
    return [Diagnostic(code="B2A205", function="<pipeline>", message=msg)
            for msg in check_pipeline_drift(model or CostModel())]


def load_budgets(path: str) -> Tuple[Dict[str, Dict[int, int]],
                                     Dict[str, Dict[str, int]]]:
    """Parse ``timing-budgets.json``: returns ``(loop_bounds, apps)``
    where loop_bounds is keyed by function name then loop ordinal (the
    committed file keeps ordinals as JSON strings and wraps each bound
    with its justification)."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "repro-timing-budgets":
        raise ValueError("%s: not a repro-timing-budgets file" % path)
    loop_bounds = {
        fn: {int(ordinal): entry["bound"]
             for ordinal, entry in per_fn.items()}
        for fn, per_fn in doc.get("loop_bounds", {}).items()}
    return loop_bounds, doc.get("apps", {})


__all__ = ["ANNOTATED", "CT_KINDS", "FunctionTiming", "INFERRED",
           "LoopTiming", "SERVER", "SPIN", "TimingConfig", "TimingReport",
           "UNBOUNDED", "analyze_timing", "check_budgets", "drift_findings",
           "load_budgets"]
