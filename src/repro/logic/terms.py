"""Term language for verification conditions.

This is the logical substrate that plays the role Coq's term language plays
in the paper: verification conditions produced by the Bedrock2 program logic
(`repro.bedrock2.vcgen`) are quantifier-free formulas over fixed-width
bitvectors and booleans, represented as hash-consed immutable DAG nodes.

Sorts:
  * ``("bv", w)`` -- a bitvector of width ``w`` (Bedrock2 words are 32 bits,
    memory bytes are 8 bits).
  * ``"bool"`` -- a proposition.

Terms are constructed through the smart constructors in this module, which
perform constant folding and a few local identities so that the common case
(all-concrete driver code) collapses to literal constants without ever
reaching the SAT solver.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from zlib import crc32

Sort = Union[str, Tuple[str, int]]

BOOL: Sort = "bool"


def bv_sort(width: int) -> Sort:
    return ("bv", width)


BV32 = bv_sort(32)
BV8 = bv_sort(8)

_INTERN: Dict[tuple, "Term"] = {}


#: Operators whose interned operand order `det_order` decides, so that it
#: depends on variable names: the commutative bitvector operators and
#: `eq`. The name-blind hash sorts their operands instead.
NAME_ORDERED = frozenset({"add", "mul", "band", "bor", "bxor", "eq"})


def _det_hashes(op: str, args: Tuple["Term", ...], attr,
                sort: Sort) -> Tuple[int, int]:
    """Two deterministic structural hashes, stable across processes and
    runs: ``(det, blind)``.

    ``hash()``/``id()`` vary with interpreter address layout and string-hash
    randomization, so anything derived from them (e.g. the argument order of
    commutative operators) would differ between a parent and its worker
    processes. The proof cache fingerprints and the parallel dispatcher both
    need term structure to be reproducible, so ordering decisions use the
    CRC-based ``det`` instead.

    ``blind`` ignores variable names (all variables of a sort hash alike)
    and the operand order of `NAME_ORDERED` operators, so it is invariant
    under alpha-renaming: the proof cache (`repro.logic.cache`) orders
    those operands by it when it fingerprints a formula.
    """
    head = crc32(("%s|%r|%r" % (op, attr, sort)).encode("utf-8"))
    det = head
    for a in args:
        det = crc32(b"%08x" % a._det, det)
    if op == "var":
        return det, crc32(("var|None|%r" % (sort,)).encode("utf-8"))
    blind = head
    children = [a._blind for a in args]
    if op in NAME_ORDERED:
        children.sort()
    for c in children:
        blind = crc32(b"%08x" % c, blind)
    return det, blind


def _struct_key(t: "Term", _memo: Optional[Dict] = None) -> tuple:
    """Exact structural key; only used to break ``_det`` collisions."""
    if _memo is None:
        _memo = {}
    cached = _memo.get(t)
    if cached is None:
        cached = (t.op, t.attr, t.sort,
                  tuple(_struct_key(a, _memo) for a in t.args))
        _memo[t] = cached
    return cached


def det_order(a: "Term", b: "Term") -> bool:
    """True when ``a`` precedes ``b`` in the canonical (deterministic)
    term order used to normalize commutative operators."""
    if a._det != b._det:
        return a._det < b._det
    if a is b:
        return False
    return _struct_key(a) < _struct_key(b)


class Term:
    """An immutable, hash-consed term.

    ``op`` is the node kind, ``args`` the child terms, ``attr`` holds
    non-term payload (constant value, variable name, extract bounds).
    Equality is identity thanks to interning.
    """

    __slots__ = ("op", "args", "attr", "sort", "_hash", "_det", "_blind")

    def __new__(cls, op: str, args: Tuple["Term", ...], attr, sort: Sort):
        key = (op, args, attr, sort)
        existing = _INTERN.get(key)
        if existing is not None:
            return existing
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.attr = attr
        self.sort = sort
        self._hash = hash(key)
        self._det, self._blind = _det_hashes(op, args, attr, sort)
        _INTERN[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __reduce__(self):
        # Pickle through the interning constructor so terms stay
        # hash-consed (and `is`-comparable) after crossing a process
        # boundary -- required for the parallel VC dispatcher.
        return (Term, (self.op, self.args, self.attr, self.sort))

    @property
    def width(self) -> int:
        if not isinstance(self.sort, tuple):
            raise TypeError("width of non-bitvector term %r" % (self,))
        return self.sort[1]

    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        if self.op != "const":
            raise TypeError("value of non-constant term %r" % (self,))
        return self.attr

    def __repr__(self) -> str:
        return term_to_str(self)


def term_to_str(t: Term, depth: int = 0) -> str:
    if depth > 6:
        return "..."
    if t.op == "const":
        if t.sort == BOOL:
            return "true" if t.attr else "false"
        return "0x%x" % t.attr
    if t.op == "var":
        return str(t.attr)
    if t.op == "extract":
        hi, lo = t.attr
        return "%s[%d:%d]" % (term_to_str(t.args[0], depth + 1), hi, lo)
    inner = " ".join(term_to_str(a, depth + 1) for a in t.args)
    return "(%s %s)" % (t.op, inner)


def _mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    value &= _mask(width)
    if value >> (width - 1):
        return value - (1 << width)
    return value


def from_signed(value: int, width: int) -> int:
    return value & _mask(width)


# ---------------------------------------------------------------------------
# Leaf constructors


def const(value: int, width: int = 32) -> Term:
    return Term("const", (), value & _mask(width), bv_sort(width))


def var(name: str, width: int = 32) -> Term:
    return Term("var", (), name, bv_sort(width))


def bool_var(name: str) -> Term:
    return Term("var", (), name, BOOL)


TRUE = Term("const", (), True, BOOL)
FALSE = Term("const", (), False, BOOL)


def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# Bitvector operations

#: Normalized by `bv_binop` to a canonical operand order.
_COMMUTATIVE = NAME_ORDERED - {"eq"}


def _binop_const(op: str, a: int, b: int, width: int) -> int:
    m = _mask(width)
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op == "udiv":
        # RISC-V semantics: division by zero yields all-ones.
        return m if b == 0 else (a // b) & m
    if op == "urem":
        return a if b == 0 else (a % b) & m
    if op == "sdiv":
        if b == 0:
            return m
        sa, sb = to_signed(a, width), to_signed(b, width)
        if sa == -(1 << (width - 1)) and sb == -1:
            return from_signed(sa, width)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return from_signed(q, width)
    if op == "srem":
        if b == 0:
            return a
        sa, sb = to_signed(a, width), to_signed(b, width)
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
        return from_signed(r, width)
    if op == "band":
        return a & b
    if op == "bor":
        return a | b
    if op == "bxor":
        return a ^ b
    if op == "shl":
        return (a << (b % width)) & m
    if op == "lshr":
        return (a >> (b % width)) & m
    if op == "ashr":
        return from_signed(to_signed(a, width) >> (b % width), width)
    raise ValueError("unknown bitvector operator %r" % op)


def bv_binop(op: str, a: Term, b: Term) -> Term:
    if a.sort != b.sort:
        raise TypeError("sort mismatch: %r vs %r" % (a.sort, b.sort))
    width = a.width
    if a.is_const() and b.is_const():
        return const(_binop_const(op, a.value, b.value, width), width)
    # Normalize commutative operators: constant on the right, otherwise a
    # canonical argument order (hash-consing then makes op(x,y) and op(y,x)
    # the *same* node, so equalities between them fold structurally).
    if op in _COMMUTATIVE:
        if a.is_const() and not b.is_const():
            a, b = b, a
        elif not a.is_const() and not b.is_const() and det_order(b, a):
            a, b = b, a
    zero = const(0, width)
    ones = const(_mask(width), width)
    if op == "add":
        if b is zero:
            return a
    elif op == "sub":
        if b is zero:
            return a
        if a is b:
            return zero
    elif op == "mul":
        if b is zero:
            return zero
        if b.is_const() and b.value == 1:
            return a
    elif op == "band":
        if b is zero:
            return zero
        if b is ones:
            return a
        if a is b:
            return a
    elif op == "bor":
        if b is zero:
            return a
        if b is ones:
            return ones
        if a is b:
            return a
    elif op == "bxor":
        if b is zero:
            return a
        if a is b:
            return zero
    elif op in ("shl", "lshr", "ashr"):
        if b is zero:
            return a
    return Term(op, (a, b), None, a.sort)


def add(a: Term, b: Term) -> Term:
    return bv_binop("add", a, b)


def sub(a: Term, b: Term) -> Term:
    return bv_binop("sub", a, b)


def mul(a: Term, b: Term) -> Term:
    return bv_binop("mul", a, b)


def band(a: Term, b: Term) -> Term:
    return bv_binop("band", a, b)


def bor(a: Term, b: Term) -> Term:
    return bv_binop("bor", a, b)


def bxor(a: Term, b: Term) -> Term:
    return bv_binop("bxor", a, b)


def shl(a: Term, b: Term) -> Term:
    return bv_binop("shl", a, b)


def lshr(a: Term, b: Term) -> Term:
    return bv_binop("lshr", a, b)


def ashr(a: Term, b: Term) -> Term:
    return bv_binop("ashr", a, b)


def bnot(a: Term) -> Term:
    return bxor(a, const(_mask(a.width), a.width))


def extract(a: Term, hi: int, lo: int) -> Term:
    """Bits ``hi..lo`` inclusive of ``a`` as a ``(hi-lo+1)``-wide vector."""
    if not (0 <= lo <= hi < a.width):
        raise ValueError("bad extract bounds [%d:%d] on width %d" % (hi, lo, a.width))
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const():
        return const(a.value >> lo, width)
    if a.op == "extract":
        inner_hi, inner_lo = a.attr
        return extract(a.args[0], inner_lo + hi, inner_lo + lo)
    if a.op == "concat":
        # concat(high, low)
        high, low = a.args
        if hi < low.width:
            return extract(low, hi, lo)
        if lo >= low.width:
            return extract(high, hi - low.width, lo - low.width)
    if a.op == "zext" and hi < a.args[0].width:
        return extract(a.args[0], hi, lo)
    return Term("extract", (a,), (hi, lo), bv_sort(width))


def concat(high: Term, low: Term) -> Term:
    """Concatenate: result bits are ``high`` above ``low``."""
    width = high.width + low.width
    if high.is_const() and low.is_const():
        return const((high.value << low.width) | low.value, width)
    return Term("concat", (high, low), None, bv_sort(width))


def zext(a: Term, width: int) -> Term:
    if width < a.width:
        raise ValueError("zext to narrower width")
    if width == a.width:
        return a
    if a.is_const():
        return const(a.value, width)
    return Term("zext", (a,), None, bv_sort(width))


def sext(a: Term, width: int) -> Term:
    if width < a.width:
        raise ValueError("sext to narrower width")
    if width == a.width:
        return a
    if a.is_const():
        return const(from_signed(to_signed(a.value, a.width), width), width)
    return Term("sext", (a,), None, bv_sort(width))


def truncate(a: Term, width: int) -> Term:
    if width > a.width:
        raise ValueError("truncate to wider width")
    return extract(a, width - 1, 0)


# ---------------------------------------------------------------------------
# Predicates

def eq(a: Term, b: Term) -> Term:
    if a.sort != b.sort:
        raise TypeError("sort mismatch in eq: %r vs %r" % (a.sort, b.sort))
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return bool_const(a.value == b.value)
    return Term("eq", (a, b) if det_order(a, b) else (b, a), None, BOOL)


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    if a.is_const() and b.is_const():
        return bool_const(a.value < b.value)
    if a is b:
        return FALSE
    if b.is_const() and b.value == 0:
        return FALSE
    # Theory lemma (RISC-V remainder convention): urem(x, y) < y iff y != 0
    # -- with y == 0, urem returns x and x < 0 is false. Keeping this as a
    # fold spares the SAT solver a 32-bit divider blast on the common
    # loop-termination obligation.
    if a.op == "urem" and a.args[1] is b:
        return not_(eq(b, const(0, b.width)))
    return Term("ult", (a, b), None, BOOL)


def ule(a: Term, b: Term) -> Term:
    return not_(ult(b, a))


def slt(a: Term, b: Term) -> Term:
    if a.is_const() and b.is_const():
        w = a.width
        return bool_const(to_signed(a.value, w) < to_signed(b.value, w))
    if a is b:
        return FALSE
    return Term("slt", (a, b), None, BOOL)


# ---------------------------------------------------------------------------
# Boolean connectives

def not_(a: Term) -> Term:
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return Term("not", (a,), None, BOOL)


def and_(*terms: Term) -> Term:
    flat = []
    for t in terms:
        if t is TRUE:
            continue
        if t is FALSE:
            return FALSE
        if t.op == "and":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq = []
    seen = set()
    for t in flat:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    for t in uniq:
        if not_(t) in seen:
            return FALSE
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return Term("and", tuple(uniq), None, BOOL)


def or_(*terms: Term) -> Term:
    flat = []
    for t in terms:
        if t is FALSE:
            continue
        if t is TRUE:
            return TRUE
        if t.op == "or":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq = []
    seen = set()
    for t in flat:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    for t in uniq:
        if not_(t) in seen:
            return TRUE
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return Term("or", tuple(uniq), None, BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def ite(cond: Term, then: Term, els: Term) -> Term:
    if cond.sort != BOOL:
        raise TypeError("ite condition must be boolean")
    if then.sort != els.sort:
        raise TypeError("ite branch sort mismatch")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.sort == BOOL:
        if then is TRUE and els is FALSE:
            return cond
        if then is FALSE and els is TRUE:
            return not_(cond)
        return or_(and_(cond, then), and_(not_(cond), els))
    return Term("ite", (cond, then, els), None, then.sort)


def bool_to_word(b: Term, width: int = 32) -> Term:
    """Embed a boolean into a bitvector as 0/1 (Bedrock2 comparison result)."""
    return ite(b, const(1, width), const(0, width))


# ---------------------------------------------------------------------------
# Evaluation under a model (used for counterexample reporting and for the
# differential tests of the solver itself).


def evaluate(t: Term, model: Dict[str, int], _cache: Optional[dict] = None):
    """Evaluate ``t`` with variables bound by ``model`` (ints / bools)."""
    if _cache is None:
        _cache = {}
    if t in _cache:
        return _cache[t]
    op = t.op
    if op == "const":
        result = t.attr
    elif op == "var":
        if t.attr not in model:
            raise KeyError("model missing variable %r" % (t.attr,))
        result = model[t.attr]
        if isinstance(t.sort, tuple):
            result &= _mask(t.width)
    elif op in ("add", "sub", "mul", "udiv", "urem", "sdiv", "srem",
                "band", "bor", "bxor", "shl", "lshr", "ashr"):
        a = evaluate(t.args[0], model, _cache)
        b = evaluate(t.args[1], model, _cache)
        result = _binop_const(op, a, b, t.width)
    elif op == "extract":
        hi, lo = t.attr
        a = evaluate(t.args[0], model, _cache)
        result = (a >> lo) & _mask(hi - lo + 1)
    elif op == "concat":
        high = evaluate(t.args[0], model, _cache)
        low = evaluate(t.args[1], model, _cache)
        result = (high << t.args[1].width) | low
    elif op == "zext":
        result = evaluate(t.args[0], model, _cache)
    elif op == "sext":
        inner = t.args[0]
        result = from_signed(to_signed(evaluate(inner, model, _cache), inner.width), t.width)
    elif op == "eq":
        result = evaluate(t.args[0], model, _cache) == evaluate(t.args[1], model, _cache)
    elif op == "ult":
        result = evaluate(t.args[0], model, _cache) < evaluate(t.args[1], model, _cache)
    elif op == "slt":
        w = t.args[0].width
        result = (to_signed(evaluate(t.args[0], model, _cache), w)
                  < to_signed(evaluate(t.args[1], model, _cache), w))
    elif op == "not":
        result = not evaluate(t.args[0], model, _cache)
    elif op == "and":
        result = all(evaluate(a, model, _cache) for a in t.args)
    elif op == "or":
        result = any(evaluate(a, model, _cache) for a in t.args)
    elif op == "ite":
        if evaluate(t.args[0], model, _cache):
            result = evaluate(t.args[1], model, _cache)
        else:
            result = evaluate(t.args[2], model, _cache)
    else:
        raise ValueError("cannot evaluate operator %r" % op)
    _cache[t] = result
    return result


def free_vars(t: Term, acc: Optional[set] = None, _seen: Optional[set] = None) -> set:
    """The set of (name, sort) pairs of variables occurring in ``t``."""
    if acc is None:
        acc = set()
    if _seen is None:
        _seen = set()
    if t in _seen:
        return acc
    _seen.add(t)
    if t.op == "var":
        acc.add((t.attr, t.sort))
    for a in t.args:
        free_vars(a, acc, _seen)
    return acc
