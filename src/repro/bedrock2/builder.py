"""A C-like eDSL for writing Bedrock2 programs in Python.

The paper writes Bedrock2 programs with Coq notations that look like C and
elaborate to syntax trees; this module plays the same role for Python. The
drivers and the lightbulb application in `repro.sw` are written with it.

Expressions support Python operator overloading on the `E` wrapper::

    x, y = E.var("x"), E.var("y")
    expr = (x + y) & E.lit(0xFF)

Statements are built with lowercase combinators and assembled with
``block(...)``::

    body = block(
        set_("i", lit(0)),
        while_((E.var("i") < lit(10)), block(
            store4(buf + E.var("i") * lit(4), E.var("i")),
            set_("i", E.var("i") + lit(1)),
        )),
    )
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, TypeVar, Union

from .ast_ import (
    Cmd,
    ELit,
    ELoad,
    EOp,
    EVar,
    Expr,
    Function,
    SCall,
    SIf,
    SInteract,
    SSet,
    SSkip,
    SStackalloc,
    SStore,
    SWhile,
    seq,
)

ExprLike = Union["E", Expr, int, str]

_Node = TypeVar("_Node")


def _mark(node: _Node) -> _Node:
    """Attach the eDSL caller's source location to an AST node.

    The AST dataclasses are frozen but not slotted, so a ``loc``
    attribute (``(filename, lineno)``) can ride along without changing
    equality or the node structure. Diagnostics from `repro.analysis`
    use it; everything else ignores it. Best-effort: nodes built outside
    the combinators (tests, generated code) simply have no ``loc``.
    """
    frame = sys._getframe(2)
    object.__setattr__(node, "loc", (frame.f_code.co_filename,
                                     frame.f_lineno))
    return node


def _unwrap(e: ExprLike) -> Expr:
    if isinstance(e, E):
        return e.node
    if isinstance(e, Expr):
        return e
    if isinstance(e, int):
        return ELit(e)
    if isinstance(e, str):
        return EVar(e)
    raise TypeError("cannot interpret %r as a Bedrock2 expression" % (e,))


class E:
    """Expression wrapper providing C-like operators.

    Comparison operators return 0/1 words, exactly as in Bedrock2 (and C).
    ``>>`` is the *unsigned* (logical) shift; use `E.sar` for arithmetic.
    """

    __slots__ = ("node",)

    def __init__(self, node: ExprLike):
        self.node = _unwrap(node)

    @staticmethod
    def lit(value: int) -> "E":
        return E(ELit(value))

    @staticmethod
    def var(name: str) -> "E":
        return E(EVar(name))

    def _bin(self, op: str, other: ExprLike) -> "E":
        return E(EOp(op, self.node, _unwrap(other)))

    def _rbin(self, op: str, other: ExprLike) -> "E":
        return E(EOp(op, _unwrap(other), self.node))

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._rbin("add", other)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __rsub__(self, other):
        return self._rbin("sub", other)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __rmul__(self, other):
        return self._rbin("mul", other)

    def __and__(self, other):
        return self._bin("and", other)

    def __or__(self, other):
        return self._bin("or", other)

    def __xor__(self, other):
        return self._bin("xor", other)

    def __lshift__(self, other):
        return self._bin("slu", other)

    def __rshift__(self, other):
        return self._bin("sru", other)

    def sar(self, other):
        """Arithmetic (sign-propagating) right shift."""
        return self._bin("srs", other)

    def udiv(self, other):
        return self._bin("divu", other)

    def umod(self, other):
        return self._bin("remu", other)

    def mulhuu(self, other):
        return self._bin("mulhuu", other)

    def __lt__(self, other):
        return self._bin("ltu", other)

    def __gt__(self, other):
        return self._rbin("ltu", other)

    def slt(self, other):
        """Signed less-than (Bedrock2's ``lts``)."""
        return self._bin("lts", other)

    def __eq__(self, other):  # type: ignore[override]
        return self._bin("eq", other)

    def __ne__(self, other):  # type: ignore[override]
        return E(EOp("eq", EOp("eq", self.node, _unwrap(other)), ELit(0)))

    def __hash__(self):
        return hash(self.node)

    def __repr__(self):
        return "E(%r)" % (self.node,)


def lit(value: int) -> E:
    return E.lit(value)


def var(name: str) -> E:
    return E.var(name)


def load1(addr: ExprLike) -> E:
    return E(ELoad(1, _unwrap(addr)))


def load2(addr: ExprLike) -> E:
    return E(ELoad(2, _unwrap(addr)))


def load4(addr: ExprLike) -> E:
    return E(ELoad(4, _unwrap(addr)))


# -- statements ---------------------------------------------------------------

def skip() -> Cmd:
    return _mark(SSkip())


def set_(name: str, value: ExprLike) -> Cmd:
    return _mark(SSet(name, _unwrap(value)))


def store1(addr: ExprLike, value: ExprLike) -> Cmd:
    return _mark(SStore(1, _unwrap(addr), _unwrap(value)))


def store2(addr: ExprLike, value: ExprLike) -> Cmd:
    return _mark(SStore(2, _unwrap(addr), _unwrap(value)))


def store4(addr: ExprLike, value: ExprLike) -> Cmd:
    return _mark(SStore(4, _unwrap(addr), _unwrap(value)))


def if_(cond: ExprLike, then_: Cmd, else_: Optional[Cmd] = None) -> Cmd:
    return _mark(SIf(_unwrap(cond), then_,
                     else_ if else_ is not None else SSkip()))


def while_(cond: ExprLike, body: Cmd, spec=None) -> Cmd:
    return _mark(SWhile(_unwrap(cond), body, spec=spec))


def block(*cmds: Cmd) -> Cmd:
    return seq(*cmds)


def call(binds: Sequence[str], func: str, *args: ExprLike) -> Cmd:
    return _mark(SCall(tuple(binds), func, tuple(_unwrap(a) for a in args)))


def interact(binds: Sequence[str], action: str, *args: ExprLike) -> Cmd:
    return _mark(SInteract(tuple(binds), action,
                           tuple(_unwrap(a) for a in args)))


def stackalloc(name: str, nbytes: int, body: Cmd) -> Cmd:
    return _mark(SStackalloc(name, nbytes, body))


def func(name: str, params: Sequence[str], rets: Sequence[str],
         body: Cmd) -> Function:
    return _mark(Function(name, tuple(params), tuple(rets), body))
