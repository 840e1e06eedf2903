"""Bit-blasting of bitvector terms to CNF.

Reduces the quantifier-free bitvector formulas produced by the program logic
to propositional CNF via Tseitin encoding, for decision by the CDCL solver
in `repro.logic.sat`. Each bitvector term maps to a list of literals (LSB
first); each boolean term maps to a single literal.

A `BitBlaster` is incremental: terms are blasted once and cached, so a
later formula that shares subterms with earlier ones adds only its new
gates to the same solver. The portfolio solver keeps one per verified
function and decides each query under the literals of its conjuncts
(`repro.logic.solver`), rather than asserting them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from . import terms as T
from .sat import Solver


class BitBlaster:
    def __init__(self):
        self.solver = Solver()
        self._bv_cache: Dict[T.Term, List[int]] = {}
        self._bool_cache: Dict[T.Term, int] = {}
        self._var_bits: Dict[str, List[int]] = {}
        self._bool_vars: Dict[str, int] = {}
        self.cache_hits = 0
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])

    # -- gate primitives -----------------------------------------------------

    def _const_lit(self, value: bool) -> int:
        return self._true if value else -self._true

    def _and2(self, a: int, b: int) -> int:
        if a == self._true:
            return b
        if b == self._true:
            return a
        if a == -self._true or b == -self._true:
            return -self._true
        if a == b:
            return a
        if a == -b:
            return -self._true
        out = self.solver.new_var()
        self.solver.add_clause([-out, a])
        self.solver.add_clause([-out, b])
        self.solver.add_clause([out, -a, -b])
        return out

    def _or2(self, a: int, b: int) -> int:
        return -self._and2(-a, -b)

    def _xor2(self, a: int, b: int) -> int:
        if a == self._true:
            return -b
        if a == -self._true:
            return b
        if b == self._true:
            return -a
        if b == -self._true:
            return a
        if a == b:
            return -self._true
        if a == -b:
            return self._true
        out = self.solver.new_var()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        return out

    def _mux(self, sel: int, then: int, els: int) -> int:
        """``sel ? then : els``: one variable and six clauses (the last
        two are implied, and help propagation), unless an input is a
        constant or the branches coincide."""
        t = self._true
        if sel == t:
            return then
        if sel == -t:
            return els
        if then == els:
            return then
        if then == t:
            return self._or2(sel, els)
        if then == -t:
            return self._and2(-sel, els)
        if els == t:
            return self._or2(-sel, then)
        if els == -t:
            return self._and2(sel, then)
        out = self.solver.new_var()
        add = self.solver.add_clause
        add([-sel, -then, out])
        add([-sel, then, -out])
        add([sel, -els, out])
        add([sel, els, -out])
        add([-then, -els, out])
        add([then, els, -out])
        return out

    def _majority(self, a: int, b: int, c: int) -> int:
        """At least two of ``a``, ``b``, ``c`` (a full adder's carry): one
        variable and six clauses, unless an input is a constant or two
        inputs coincide."""
        t = self._true
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == -b:
            return c
        if a == -c:
            return b
        if b == -c:
            return a
        for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if x == t:
                return self._or2(y, z)
            if x == -t:
                return self._and2(y, z)
        out = self.solver.new_var()
        add = self.solver.add_clause
        add([-a, -b, out])
        add([-a, -c, out])
        add([-b, -c, out])
        add([a, b, -out])
        add([a, c, -out])
        add([b, c, -out])
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        return self._xor2(self._xor2(a, b), cin), self._majority(a, b, cin)

    def _add_bits(self, a: List[int], b: List[int], cin: int) -> List[int]:
        out = []
        carry = cin
        for ai, bi in zip(a, b):
            s, carry = self._full_adder(ai, bi, carry)
            out.append(s)
        return out

    def _ult_bits(self, a: List[int], b: List[int]) -> int:
        """Unsigned a < b."""
        lt = self._const_lit(False)
        for ai, bi in zip(a, b):  # LSB to MSB
            eq_i = -self._xor2(ai, bi)
            lt = self._mux(eq_i, lt, self._and2(-ai, bi))
        return lt

    def _eq_bits(self, a: List[int], b: List[int]) -> int:
        acc = self._const_lit(True)
        for ai, bi in zip(a, b):
            acc = self._and2(acc, -self._xor2(ai, bi))
        return acc

    def _shift_bits(self, a: List[int], b: List[int], kind: str) -> List[int]:
        """Barrel shifter; shift amount is b mod width."""
        width = len(a)
        amt_bits = max(1, (width - 1).bit_length())
        cur = list(a)
        fill = a[-1] if kind == "ashr" else self._const_lit(False)
        for stage in range(amt_bits):
            dist = 1 << stage
            sel = b[stage]
            nxt = []
            for i in range(width):
                if kind == "shl":
                    shifted = cur[i - dist] if i - dist >= 0 else self._const_lit(False)
                else:
                    shifted = cur[i + dist] if i + dist < width else fill
                nxt.append(self._mux(sel, shifted, cur[i]))
            cur = nxt
        return cur

    def _mul_bits(self, a: List[int], b: List[int]) -> List[int]:
        width = len(a)
        acc = [self._const_lit(False)] * width
        for i in range(width):
            partial = ([self._const_lit(False)] * i
                       + [self._and2(b[i], a[j]) for j in range(width - i)])
            acc = self._add_bits(acc, partial, self._const_lit(False))
        return acc

    def _udivrem_bits(self, a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
        """Restoring division; returns (quotient, remainder), with the
        RISC-V convention for division by zero handled by the caller."""
        width = len(a)
        rem = [self._const_lit(False)] * width
        quo = [self._const_lit(False)] * width
        for i in range(width - 1, -1, -1):
            rem = [a[i]] + rem[:-1]
            # ge = rem >= b
            ge = -self._ult_bits(rem, b)
            diff = self._add_bits(rem, [-x for x in b], self._const_lit(True))
            rem = [self._mux(ge, d, r) for d, r in zip(diff, rem)]
            quo[i] = ge
        return quo, rem

    # -- term translation ----------------------------------------------------

    def blast_bv(self, t: T.Term) -> List[int]:
        cached = self._bv_cache.get(t)
        if cached is not None:
            self.cache_hits += 1
            return cached
        op = t.op
        width = t.width
        if op == "const":
            bits = [self._const_lit(bool((t.value >> i) & 1)) for i in range(width)]
        elif op == "var":
            bits = self._var_bits.get(t.attr)
            if bits is None:
                bits = [self.solver.new_var() for _ in range(width)]
                self._var_bits[t.attr] = bits
        elif op == "add":
            bits = self._add_bits(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]),
                                  self._const_lit(False))
        elif op == "sub":
            bits = self._add_bits(self.blast_bv(t.args[0]),
                                  [-x for x in self.blast_bv(t.args[1])],
                                  self._const_lit(True))
        elif op == "mul":
            bits = self._mul_bits(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))
        elif op in ("udiv", "urem"):
            a = self.blast_bv(t.args[0])
            b = self.blast_bv(t.args[1])
            quo, rem = self._udivrem_bits(a, b)
            bzero = -self._or_many(b)
            if op == "udiv":
                ones = [self._const_lit(True)] * width
                bits = [self._mux(bzero, o, q) for o, q in zip(ones, quo)]
            else:
                bits = [self._mux(bzero, ai, r) for ai, r in zip(a, rem)]
        elif op == "band":
            bits = [self._and2(x, y) for x, y in
                    zip(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))]
        elif op == "bor":
            bits = [self._or2(x, y) for x, y in
                    zip(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))]
        elif op == "bxor":
            bits = [self._xor2(x, y) for x, y in
                    zip(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))]
        elif op in ("shl", "lshr", "ashr"):
            a = self.blast_bv(t.args[0])
            b = self.blast_bv(t.args[1])
            if t.args[1].is_const():
                amount = t.args[1].value % width
                if op == "shl":
                    bits = [self._const_lit(False)] * amount + a[:width - amount]
                elif op == "lshr":
                    bits = a[amount:] + [self._const_lit(False)] * amount
                else:
                    bits = a[amount:] + [a[-1]] * amount
            else:
                bits = self._shift_bits(a, b, op)
        elif op == "extract":
            hi, lo = t.attr
            bits = self.blast_bv(t.args[0])[lo:hi + 1]
        elif op == "concat":
            high, low = t.args
            bits = self.blast_bv(low) + self.blast_bv(high)
        elif op == "zext":
            inner = self.blast_bv(t.args[0])
            bits = inner + [self._const_lit(False)] * (width - len(inner))
        elif op == "sext":
            inner = self.blast_bv(t.args[0])
            bits = inner + [inner[-1]] * (width - len(inner))
        elif op == "ite":
            sel = self.blast_bool(t.args[0])
            then = self.blast_bv(t.args[1])
            els = self.blast_bv(t.args[2])
            bits = [self._mux(sel, x, y) for x, y in zip(then, els)]
        else:
            raise ValueError("cannot bit-blast bitvector operator %r" % op)
        assert len(bits) == width
        self._bv_cache[t] = bits
        return bits

    def _or_many(self, lits: List[int]) -> int:
        acc = self._const_lit(False)
        for lit in lits:
            acc = self._or2(acc, lit)
        return acc

    def blast_bool(self, t: T.Term) -> int:
        cached = self._bool_cache.get(t)
        if cached is not None:
            self.cache_hits += 1
            return cached
        op = t.op
        if op == "const":
            lit = self._const_lit(bool(t.attr))
        elif op == "var":
            lit = self._bool_vars.get(t.attr)
            if lit is None:
                lit = self.solver.new_var()
                self._bool_vars[t.attr] = lit
        elif op == "eq":
            lit = self._eq_bits(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))
        elif op == "ult":
            lit = self._ult_bits(self.blast_bv(t.args[0]), self.blast_bv(t.args[1]))
        elif op == "slt":
            a = self.blast_bv(t.args[0])
            b = self.blast_bv(t.args[1])
            # Signed comparison: flip sign bits and compare unsigned.
            lit = self._ult_bits(a[:-1] + [-a[-1]], b[:-1] + [-b[-1]])
        elif op == "not":
            lit = -self.blast_bool(t.args[0])
        elif op == "and":
            lit = self._const_lit(True)
            for arg in t.args:
                lit = self._and2(lit, self.blast_bool(arg))
        elif op == "or":
            lit = self._const_lit(False)
            for arg in t.args:
                lit = self._or2(lit, self.blast_bool(arg))
        else:
            raise ValueError("cannot bit-blast boolean operator %r" % op)
        self._bool_cache[t] = lit
        return lit

    def extract_model(self, sat_model: Dict[int, bool],
                      names: Iterable[Tuple[str, T.Sort]]) -> Dict[str, int]:
        """Map a SAT model back to values of the term variables ``names``
        (``(name, sort)`` pairs); names never blasted are left out."""
        model: Dict[str, int] = {}
        for name, sort in names:
            if sort == T.BOOL:
                lit = self._bool_vars.get(name)
                if lit is not None:
                    bit = sat_model.get(abs(lit), False)
                    model[name] = bit if lit > 0 else (not bit)
                continue
            bits = self._var_bits.get(name)
            if bits is None:
                continue
            value = 0
            for i, lit in enumerate(bits):
                bit = sat_model.get(abs(lit), False)
                if lit < 0:
                    bit = not bit
                if bit:
                    value |= 1 << i
            model[name] = value
        return model
