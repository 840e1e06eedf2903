"""Abstract syntax of the Bedrock2 source language (paper section 5.2).

Bedrock2 is a syntactic subset of C: all values are machine words, memory
is a flat byte-addressed space, statements are assignment, 1/2/4-byte loads
and stores, if/while, stack allocation, calls to Bedrock2 functions, and
syntactically distinguished *external* calls (`SInteract`) which is how all
I/O -- MMIO in the lightbulb -- enters the language.

The AST is plain immutable dataclasses; the eDSL in `repro.bedrock2.builder`
constructs these, mirroring how the paper's programs are written as Coq
notations that elaborate to Bedrock2 syntax trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Binary operators of Bedrock2 (the paper's bopname enumeration).
BINOPS = (
    "add", "sub", "mul", "mulhuu", "divu", "remu",
    "and", "or", "xor", "sru", "slu", "srs",
    "lts", "ltu", "eq",
)

ACCESS_SIZES = (1, 2, 4)


class Expr:
    """Base class of expressions. All expressions evaluate to one word."""

    __slots__ = ()


@dataclass(frozen=True)
class ELit(Expr):
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & 0xFFFFFFFF)


@dataclass(frozen=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True)
class ELoad(Expr):
    """``load1``/``load2``/``load4``: little-endian load of ``size`` bytes."""

    size: int
    addr: Expr

    def __post_init__(self):
        if self.size not in ACCESS_SIZES:
            raise ValueError("bad load size %r" % (self.size,))


@dataclass(frozen=True)
class EOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in BINOPS:
            raise ValueError("unknown binary operator %r" % (self.op,))


class Cmd:
    """Base class of commands (statements)."""

    __slots__ = ()


@dataclass(frozen=True)
class SSkip(Cmd):
    pass


@dataclass(frozen=True)
class SSet(Cmd):
    name: str
    value: Expr


@dataclass(frozen=True)
class SStore(Cmd):
    size: int
    addr: Expr
    value: Expr

    def __post_init__(self):
        if self.size not in ACCESS_SIZES:
            raise ValueError("bad store size %r" % (self.size,))


@dataclass(frozen=True)
class SStackalloc(Cmd):
    """``stackalloc x[n] { body }``: ``x`` is bound to the address of a fresh
    ``n``-byte region for the duration of ``body`` (n must be a multiple of
    the word size, as in Bedrock2). The address itself is *internally
    nondeterministic* -- this is the compiler-proof stress case the paper
    highlights when motivating CPS semantics."""

    name: str
    nbytes: int
    body: "Cmd"


@dataclass(frozen=True)
class SIf(Cmd):
    cond: Expr
    then_: Cmd
    else_: Cmd


@dataclass(frozen=True)
class SWhile(Cmd):
    cond: Expr
    body: Cmd
    # Verification metadata (not part of the operational language): an
    # optional `LoopSpec` consumed by the program logic, mirroring how the
    # paper's loops are annotated with invariants and decreasing measures.
    spec: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True)
class SSeq(Cmd):
    first: Cmd
    rest: Cmd


@dataclass(frozen=True)
class SCall(Cmd):
    """Call to a Bedrock2-defined function, binding its return tuple."""

    binds: Tuple[str, ...]
    func: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class SInteract(Cmd):
    """External call (paper section 6.1): the only source of I/O.

    The semantics of the action is a *parameter* of the language; the
    lightbulb instantiates it with MMIOREAD/MMIOWRITE.
    """

    binds: Tuple[str, ...]
    action: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Function:
    """A Bedrock2 function: named parameters, named return values, a body."""

    name: str
    params: Tuple[str, ...]
    rets: Tuple[str, ...]
    body: Cmd


Program = Dict[str, Function]


def seq(*cmds: Cmd) -> Cmd:
    """Right-nested sequence of commands; the empty sequence is ``skip``."""
    if not cmds:
        return SSkip()
    result = cmds[-1]
    for cmd in reversed(cmds[:-1]):
        result = SSeq(cmd, result)
    return result


def expr_vars(e: Expr, acc: Optional[set] = None) -> set:
    if acc is None:
        acc = set()
    if isinstance(e, EVar):
        acc.add(e.name)
    elif isinstance(e, ELoad):
        expr_vars(e.addr, acc)
    elif isinstance(e, EOp):
        expr_vars(e.lhs, acc)
        expr_vars(e.rhs, acc)
    return acc


def modified_vars(c: Cmd, acc: Optional[set] = None) -> set:
    """Variables possibly assigned by ``c`` (used for loop havoc in vcgen)."""
    if acc is None:
        acc = set()
    if isinstance(c, SSet):
        acc.add(c.name)
    elif isinstance(c, SStackalloc):
        acc.add(c.name)
        modified_vars(c.body, acc)
    elif isinstance(c, SIf):
        modified_vars(c.then_, acc)
        modified_vars(c.else_, acc)
    elif isinstance(c, SWhile):
        modified_vars(c.body, acc)
    elif isinstance(c, SSeq):
        modified_vars(c.first, acc)
        modified_vars(c.rest, acc)
    elif isinstance(c, (SCall, SInteract)):
        acc.update(c.binds)
    return acc


def cmd_size(c: Cmd) -> int:
    """Number of AST nodes; used in LoC-style accounting and as a fuel hint."""
    if isinstance(c, (SSkip, SSet, SStore, SCall, SInteract)):
        return 1
    if isinstance(c, SStackalloc):
        return 1 + cmd_size(c.body)
    if isinstance(c, SIf):
        return 1 + cmd_size(c.then_) + cmd_size(c.else_)
    if isinstance(c, SWhile):
        return 1 + cmd_size(c.body)
    if isinstance(c, SSeq):
        return cmd_size(c.first) + cmd_size(c.rest)
    raise TypeError("not a command: %r" % (c,))
