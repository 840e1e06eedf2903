"""The Bedrock2 linter: diagnostic passes over a whole program.

Diagnostic codes (stable; documented in docs/static-analysis.md):

======= ==================================================================
B2A001  use of a possibly-unassigned variable (incl. unassigned returns)
B2A002  dead store: assignment whose value is never read
B2A003  unreachable branch (condition abstractly constant)
B2A004  provably misaligned load/store address
B2A005  load/store address inside an MMIO range (device access must use
        an external call, not a memory access)
B2A006  external call violates the extspec signature (unknown action,
        wrong arity, constant address outside the MMIO ranges or
        misaligned)
B2A007  external-call protocol violation (chip-select acquire/release
        pairing: double acquire, or a path exiting while held)
======= ==================================================================

The checks are intentionally *definite*: each fires only when the
abstract semantics proves the defect on every concretization of the
abstract state it inspects (up to the documented caveats), so shipped
programs lint clean and CI can fail on any finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..bedrock2.ast_ import (
    ELit,
    ELoad,
    EOp,
    Expr,
    Function,
    Program,
    SCall,
    SIf,
    SInteract,
    SSet,
    SStore,
    SWhile,
    expr_vars,
)
from ..logic.intervals import AbstractWord
from .dataflow import liveness_cmd, node_loc, run_cmd
from .domains import (
    HELD,
    RELEASED,
    CsPairingSpec,
    DefiniteAssignmentDomain,
    ExtProtocolDomain,
    WordDomain,
)

_FINDINGS = obs.counter("analysis.lint_findings")
_FUNCTIONS_LINTED = obs.counter("analysis.functions_linted")


@dataclass(frozen=True)
class Diagnostic:
    """One finding, with a stable code and (when the eDSL recorded one)
    a source location."""

    code: str
    function: str
    message: str
    loc: Optional[Tuple[str, int]] = None

    def render(self) -> str:
        where = "%s:%d: " % self.loc if self.loc else ""
        return "%s%s [%s] %s" % (where, self.function, self.code,
                                 self.message)

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "function": self.function,
            "message": self.message,
            "file": self.loc[0] if self.loc else None,
            "line": self.loc[1] if self.loc else None,
        }


@dataclass
class LintConfig:
    """Platform facts the (platform-agnostic) checks are parameterized
    by. ``mmio_ranges`` are half-open address intervals; ``ext_spec`` is
    any `repro.bedrock2.extspec.SymExtSpec` (consulted only through
    `action_signature`); ``cs_pairing`` optionally enables the protocol
    checks; ``suppress`` holds codes or ``(code, function)`` pairs."""

    mmio_ranges: Sequence[Tuple[int, int]] = ()
    ext_spec: Optional[object] = None
    cs_pairing: Optional[CsPairingSpec] = None
    suppress: FrozenSet[object] = field(default_factory=frozenset)

    def suppressed(self, diag: Diagnostic) -> bool:
        return (diag.code in self.suppress
                or (diag.code, diag.function) in self.suppress)

    def in_mmio(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.mmio_ranges)


def _stmt_uses(stmt: object) -> Iterable[Expr]:
    """The expressions a statement evaluates (not nested commands)."""
    if isinstance(stmt, SSet):
        return (stmt.value,)
    if isinstance(stmt, SStore):
        return (stmt.addr, stmt.value)
    if isinstance(stmt, (SIf, SWhile)):
        return (stmt.cond,)
    if isinstance(stmt, (SCall, SInteract)):
        return tuple(stmt.args)
    return ()


def _loads(e: Expr) -> Iterable[ELoad]:
    if isinstance(e, ELoad):
        yield e
        yield from _loads(e.addr)
    elif isinstance(e, EOp):
        yield from _loads(e.lhs)
        yield from _loads(e.rhs)


# ---------------------------------------------------------------------------
# Per-function passes (Bedrock2 AST)


def _check_definite_assignment(fn: Function, out: List[Diagnostic]) -> None:
    dom = DefiniteAssignmentDomain()
    reported = set()

    def report(name: str, node: object) -> None:
        if name in reported:
            return
        reported.add(name)
        out.append(Diagnostic("B2A001", fn.name,
                              "variable %r may be used before assignment"
                              % name, node_loc(node)))

    def visit(event: str, node: object, state: object) -> None:
        if event != "stmt":
            return
        assigned = state
        for e in _stmt_uses(node):
            for name in sorted(expr_vars(e)):
                if name not in assigned:
                    report(name, node)

    exit_state = run_cmd(fn.body, dom, frozenset(fn.params), visit)
    for name in fn.rets:
        if name not in exit_state:
            out.append(Diagnostic(
                "B2A001", fn.name,
                "return variable %r may be unassigned at exit" % name,
                node_loc(fn)))


def _check_dead_stores(fn: Function, out: List[Diagnostic]) -> None:
    def on_dead(stmt: object, live_after: object) -> None:
        assert isinstance(stmt, SSet)
        out.append(Diagnostic(
            "B2A002", fn.name,
            "dead store to %r (value never read)" % stmt.name,
            node_loc(stmt)))

    liveness_cmd(fn.body, frozenset(fn.rets), on_dead)


def _check_words(fn: Function, config: LintConfig,
                 out: List[Diagnostic]) -> None:
    """Interval/known-bits pass: unreachable branches plus misaligned /
    MMIO-range memory accesses."""
    dom = WordDomain()

    def check_access(addr: Expr, size: int, what: str, node: object,
                     state: Dict[str, AbstractWord]) -> None:
        value = dom.eval(addr, state)
        const = value.as_const()
        if const is not None:
            if size > 1 and const % size != 0:
                out.append(Diagnostic(
                    "B2A004", fn.name,
                    "%s address 0x%x is not %d-byte aligned"
                    % (what, const, size), node_loc(node)))
            if config.in_mmio(const):
                out.append(Diagnostic(
                    "B2A005", fn.name,
                    "%s address 0x%x lies in an MMIO range; device "
                    "registers must be accessed with an external call"
                    % (what, const), node_loc(node)))
        elif size > 1 and value.bits.known_ones() & (size - 1):
            out.append(Diagnostic(
                "B2A004", fn.name,
                "%s address is provably not %d-byte aligned "
                "(low bits known nonzero)" % (what, size), node_loc(node)))

    def visit(event: str, node: object, state: object) -> None:
        if event == "dead-branch":
            stmt, which = node
            label = {"then": "then-branch", "else": "else-branch",
                     "body": "loop body"}[which]
            # An intentionally-infinite server loop (`while (1)`) is
            # idiomatic; only *unreachable* code is a defect, so `while`
            # conditions that are constant-true are not reported.
            out.append(Diagnostic(
                "B2A003", fn.name,
                "%s is unreachable (condition is abstractly constant)"
                % label, node_loc(stmt)))
            return
        if event != "stmt":
            return
        assert isinstance(state, dict)
        if isinstance(node, SStore):
            check_access(node.addr, node.size, "store", node, state)
        for e in _stmt_uses(node):
            for load in _loads(e):
                check_access(load.addr, load.size, "load", node, state)

    run_cmd(fn.body, dom, {p: AbstractWord.top() for p in fn.params}, visit)


def _check_ext_calls(fn: Function, config: LintConfig,
                     out: List[Diagnostic]) -> None:
    """Extspec signature checks (B2A006) and chip-select protocol
    position (B2A007) in a single protocol-domain pass."""
    dom = ExtProtocolDomain(config.cs_pairing)

    def check_signature(node: SInteract) -> None:
        spec = config.ext_spec
        if spec is None:
            return
        signature = spec.action_signature(node.action)
        if signature is None:
            out.append(Diagnostic(
                "B2A006", fn.name,
                "unknown external action %r" % node.action, node_loc(node)))
            return
        n_args, n_rets = signature
        if len(node.args) != n_args:
            out.append(Diagnostic(
                "B2A006", fn.name,
                "%s takes %d argument(s), got %d"
                % (node.action, n_args, len(node.args)), node_loc(node)))
        if len(node.binds) != n_rets:
            out.append(Diagnostic(
                "B2A006", fn.name,
                "%s returns %d value(s), %d bound"
                % (node.action, n_rets, len(node.binds)), node_loc(node)))
        if node.args and isinstance(node.args[0], ELit):
            addr = node.args[0].value
            if not config.in_mmio(addr):
                out.append(Diagnostic(
                    "B2A006", fn.name,
                    "%s address 0x%x is outside every MMIO range"
                    % (node.action, addr), node_loc(node)))
            elif addr % 4 != 0:
                out.append(Diagnostic(
                    "B2A006", fn.name,
                    "%s address 0x%x is not word-aligned"
                    % (node.action, addr), node_loc(node)))

    def visit(event: str, node: object, state: object) -> None:
        if event != "stmt" or not isinstance(node, SInteract):
            return
        check_signature(node)
        if dom.classify(node) == "acquire" and HELD in state:
            out.append(Diagnostic(
                "B2A007", fn.name,
                "chip-select acquired while possibly already held "
                "(missing release on some path)", node_loc(node)))

    exit_state = run_cmd(fn.body, dom, frozenset({RELEASED}), visit)
    if HELD in exit_state:
        out.append(Diagnostic(
            "B2A007", fn.name,
            "function may exit with chip-select still held "
            "(acquire without matching release)", node_loc(fn)))


def lint_function(fn: Function, config: Optional[LintConfig] = None,
                  ) -> List[Diagnostic]:
    """All per-function checks over one Bedrock2 function."""
    config = config if config is not None else LintConfig()
    out: List[Diagnostic] = []
    _check_definite_assignment(fn, out)
    _check_dead_stores(fn, out)
    _check_words(fn, config, out)
    _check_ext_calls(fn, config, out)
    _FUNCTIONS_LINTED.inc()
    return [d for d in out if not config.suppressed(d)]


def lint_program(program: Program, config: Optional[LintConfig] = None,
                 ) -> List[Diagnostic]:
    """Lint every function of a Bedrock2 program; diagnostics in
    function order, stable across runs."""
    config = config if config is not None else LintConfig()
    out: List[Diagnostic] = []
    with obs.span("analysis.lint", cat="analysis"):
        for name in program:
            out.extend(lint_function(program[name], config))
    _FINDINGS.inc(len(out))
    return out


# ---------------------------------------------------------------------------
# Rendering


def render_text(diags: Sequence[Diagnostic]) -> str:
    if not diags:
        return "no findings"
    lines = [d.render() for d in diags]
    lines.append("%d finding(s)" % len(diags))
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic]) -> str:
    return json.dumps({"findings": [d.to_json() for d in diags],
                       "count": len(diags)}, indent=2)
