"""Generic dataflow walkers over the Bedrock2 AST and explicit CFGs.

Forward analyses plug an `AbstractDomain` into `run_cmd`: the walker
owns control flow -- sequencing, branch joins, loop fixpoints with
widening -- while the domain owns the meaning of states. Analyses
observe the program through a visitor callback that receives each
statement with its in-state; during loop fixpoint iteration the visitor
is muted, and once the loop stabilizes the body is re-walked with the
visitor attached, so every statement is reported exactly once under its
weakest (stabilized) in-state.

Analyses over an *explicit* control-flow graph (the binary-level
abstract interpreter in `binlint.py`, whose control flow is recovered
from machine code rather than structured syntax) use `run_cfg`: a
classic worklist fixpoint where the client's transfer function maps a
block's in-state to one out-state per successor, so branch refinement
and infeasible-edge pruning live in the client.

Backward liveness is structural rather than domain-parameterized
(`liveness_cmd`): the only client is the dead-store check, which needs
the live-after set at every assignment.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from ..bedrock2.ast_ import (
    Cmd,
    Expr,
    SCall,
    SIf,
    SInteract,
    SSeq,
    SSet,
    SSkip,
    SStackalloc,
    SStore,
    SWhile,
    expr_vars,
)

S = TypeVar("S")

#: Visitor events: ("stmt", node, state) before each statement;
#: ("dead-branch", (node, which), state) when a branch is unreachable,
#: with ``which`` in {"then", "else", "body"}.
Visitor = Callable[[str, object, object], None]

#: Loop iterations before the walker switches from join to widen.
WIDEN_AFTER = 3

#: Hard cap on fixpoint iterations (the widened lattices all have short
#: chains; this is a defensive bound, not a tuning knob).
MAX_ITERATIONS = 64


class AbstractDomain(Generic[S]):
    """Interface a forward domain implements; states are treated as
    immutable values by the walker (transfers return new states)."""

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def widen(self, a: S, b: S) -> S:
        """Extrapolation for loop heads; default is plain join, which is
        enough for finite-height domains."""
        return self.join(a, b)

    def equals(self, a: S, b: S) -> bool:
        return bool(a == b)

    def transfer(self, stmt: object, state: S) -> S:
        """Effect of an atomic statement (assignment, store, call,
        interact, stackalloc-binding); control flow never reaches here."""
        raise NotImplementedError

    def assume(self, state: S, cond: Expr, taken: bool) -> S:
        """Refine ``state`` with the branch condition's truth; default
        no-op."""
        return state

    def decide(self, state: S, cond: Expr) -> Optional[bool]:
        """Constant-fold a branch condition in the abstract state; None
        when undecided. Drives unreachable-branch detection."""
        return None


# ---------------------------------------------------------------------------
# Forward walker, Bedrock2 AST


def run_cmd(cmd: Cmd, dom: AbstractDomain[S], state: S,
            visit: Optional[Visitor] = None) -> S:
    """Propagate ``state`` through ``cmd``; returns the exit state."""
    if isinstance(cmd, SSkip):
        return state
    if isinstance(cmd, SSeq):
        mid = run_cmd(cmd.first, dom, state, visit)
        return run_cmd(cmd.rest, dom, mid, visit)
    if isinstance(cmd, SIf):
        if visit is not None:
            visit("stmt", cmd, state)
        decided = dom.decide(state, cmd.cond)
        if decided is True:
            if visit is not None:
                visit("dead-branch", (cmd, "else"), state)
            return run_cmd(cmd.then_, dom, dom.assume(state, cmd.cond, True),
                           visit)
        if decided is False:
            if visit is not None:
                visit("dead-branch", (cmd, "then"), state)
            return run_cmd(cmd.else_, dom, dom.assume(state, cmd.cond, False),
                           visit)
        then_out = run_cmd(cmd.then_, dom, dom.assume(state, cmd.cond, True),
                           visit)
        else_out = run_cmd(cmd.else_, dom, dom.assume(state, cmd.cond, False),
                           visit)
        return dom.join(then_out, else_out)
    if isinstance(cmd, SWhile):
        if visit is not None:
            visit("stmt", cmd, state)
        head = _loop_fixpoint(
            state, dom,
            lambda h: run_cmd(cmd.body, dom, dom.assume(h, cmd.cond, True),
                              None))
        if dom.decide(head, cmd.cond) is False:
            if visit is not None:
                visit("dead-branch", (cmd, "body"), state)
        elif visit is not None:
            run_cmd(cmd.body, dom, dom.assume(head, cmd.cond, True), visit)
        return dom.assume(head, cmd.cond, False)
    if isinstance(cmd, SStackalloc):
        if visit is not None:
            visit("stmt", cmd, state)
        return run_cmd(cmd.body, dom, dom.transfer(cmd, state), visit)
    # Atomic: SSet, SStore, SCall, SInteract.
    if visit is not None:
        visit("stmt", cmd, state)
    return dom.transfer(cmd, state)


def _loop_fixpoint(entry: S, dom: AbstractDomain[S],
                   body: Callable[[S], S]) -> S:
    """Stabilize the loop-head state: ``head = entry ⊔ body(head)``."""
    head = entry
    for iteration in range(MAX_ITERATIONS):
        grown = dom.join(entry, body(head))
        if iteration >= WIDEN_AFTER:
            grown = dom.widen(head, grown)
        if dom.equals(grown, head):
            return head
        head = grown
    return head


# ---------------------------------------------------------------------------
# Forward worklist fixpoint over an explicit CFG

B = TypeVar("B", bound=Hashable)

#: A CFG transfer: given a block id and its in-state, the out-state per
#: successor block. Omitting a successor prunes that edge (used for
#: branches whose condition the domain decides).
CfgTransfer = Callable[[B, S], Mapping[B, S]]


def run_cfg(entry: B, entry_state: S, transfer: "CfgTransfer[B, S]",
            dom: AbstractDomain[S]) -> Dict[B, S]:
    """Worklist fixpoint over an explicit CFG.

    Returns the stabilized in-state per reachable block; blocks never
    reached (all incoming edges pruned, or disconnected) are absent from
    the result. Joins switch to widening at any block whose in-state has
    been updated `WIDEN_AFTER` times -- loop heads in disguise -- which
    bounds chains in infinite-height domains; `MAX_ITERATIONS` visits
    per discovered block is a defensive cap on top.
    """
    in_states: Dict[B, S] = {entry: entry_state}
    updates: Dict[B, int] = {}
    work = deque([entry])
    queued = {entry}
    pops = 0
    while work:
        pops += 1
        if pops > MAX_ITERATIONS * max(1, len(in_states)):
            break
        block = work.popleft()
        queued.discard(block)
        for succ, out in transfer(block, in_states[block]).items():
            old = in_states.get(succ)
            if old is None:
                in_states[succ] = out
            else:
                grown = dom.join(old, out)
                if updates.get(succ, 0) >= WIDEN_AFTER:
                    grown = dom.widen(old, grown)
                if dom.equals(grown, old):
                    continue
                updates[succ] = updates.get(succ, 0) + 1
                in_states[succ] = grown
            if succ not in queued:
                work.append(succ)
                queued.add(succ)
    return in_states


# ---------------------------------------------------------------------------
# Backward liveness, Bedrock2 AST

Live = FrozenSet[str]
OnDead = Callable[[object, Live], None]


def _vars(e: Expr) -> Live:
    return frozenset(expr_vars(e))


def liveness_cmd(cmd: Cmd, live_out: Live,
                 on_dead: Optional[OnDead] = None) -> Live:
    """Backward live-variable analysis; returns the live-in set.

    ``on_dead(stmt, live_after)`` fires for every `SSet` whose target is
    dead immediately after it -- the classic dead store. Only plain
    assignments are reported: call/interact result binds are how Bedrock2
    discards unused outputs (the drivers' ``junk``), and stores write
    memory, not locals.
    """
    if isinstance(cmd, SSkip):
        return live_out
    if isinstance(cmd, SSeq):
        mid = liveness_cmd(cmd.rest, live_out, on_dead)
        return liveness_cmd(cmd.first, mid, on_dead)
    if isinstance(cmd, SSet):
        if on_dead is not None and cmd.name not in live_out:
            on_dead(cmd, live_out)
        return (live_out - {cmd.name}) | _vars(cmd.value)
    if isinstance(cmd, SStore):
        return live_out | _vars(cmd.addr) | _vars(cmd.value)
    if isinstance(cmd, SIf):
        then_in = liveness_cmd(cmd.then_, live_out, on_dead)
        else_in = liveness_cmd(cmd.else_, live_out, on_dead)
        return then_in | else_in | _vars(cmd.cond)
    if isinstance(cmd, SWhile):
        head = live_out | _vars(cmd.cond)
        for _ in range(MAX_ITERATIONS):
            grown = head | liveness_cmd(cmd.body, head, None)
            if grown == head:
                break
            head = grown
        liveness_cmd(cmd.body, head, on_dead)
        return head
    if isinstance(cmd, SStackalloc):
        inner = liveness_cmd(cmd.body, live_out, on_dead)
        return inner - {cmd.name}
    if isinstance(cmd, SCall):
        live = live_out - frozenset(cmd.binds)
        for arg in cmd.args:
            live |= _vars(arg)
        return live
    if isinstance(cmd, SInteract):
        live = live_out - frozenset(cmd.binds)
        for arg in cmd.args:
            live |= _vars(arg)
        return live
    raise TypeError("not a command: %r" % (cmd,))


def node_loc(node: object) -> Optional[Tuple[str, int]]:
    """The ``(filename, lineno)`` the eDSL builder attached, if any."""
    loc = getattr(node, "loc", None)
    if (isinstance(loc, tuple) and len(loc) == 2
            and isinstance(loc[0], str) and isinstance(loc[1], int)):
        return loc
    return None
