"""Tests for the optimizing-compiler baseline: pass correctness (semantics
preserved) and effectiveness (it actually speeds code up) -- §7.2.1's
"gcc -O3" stand-in."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.bedrock2 import ast_ as A
from repro.bedrock2.builder import (
    block, call, func, if_, interact, lit, load4, set_, stackalloc, store4,
    var, while_,
)
from repro.bedrock2.semantics import ExtHandler, Memory, UndefinedBehavior, run_function
from repro.compiler.flatten import flatten_program
from repro.compiler.flatimp import run_flat_function
from repro.compiler.opt import (
    compile_program_optimized, const_prop_program, dce_program,
    inline_program, optimize,
)
from repro.compiler.pipeline import compile_program, run_compiled
from repro.sw.doorlock import doorlock_program
from repro.sw.program import lightbulb_program


class Bus:
    def __init__(self):
        self.value = 0
        self.writes = []

    def is_mmio(self, addr):
        return addr >= 0x10000000

    def read(self, addr):
        self.value = (self.value * 7 + addr) & 0xFFFFFFFF
        return self.value

    def write(self, addr, value):
        self.writes.append((addr, value))


class Ext(ExtHandler):
    def __init__(self, bus):
        self.bus = bus

    def call(self, action, args, mem):
        if action == "MMIOREAD":
            return (self.bus.read(args[0]),)
        if action == "MMIOWRITE":
            self.bus.write(args[0], args[1])
            return ()
        raise UndefinedBehavior(action)


def check_opt(prog, args=(), n_rets=1, data=b"", entry="main"):
    """Source semantics vs optimized-FlatImp vs optimized-compiled machine."""
    def mem():
        return Memory.from_regions([(0x4000, data)]) if data else Memory()

    src_rets, src_state = run_function(prog, entry, args, mem=mem(),
                                       ext=Ext(Bus()))
    flat = optimize(flatten_program(prog))
    flat_rets, _, _, flat_trace = run_flat_function(flat, entry, args,
                                                    mem=mem(), ext=Ext(Bus()))
    assert flat_rets == src_rets
    assert flat_trace == src_state.trace
    compiled = compile_program_optimized(prog, entry=entry)
    rets, machine = run_compiled(compiled, args, n_rets=n_rets,
                                 mmio_bus=Bus(),
                                 extra_memory=[(0x4000, data)] if data else ())
    assert rets == src_rets[:n_rets]
    assert machine.trace == [e.to_mmio_triple() for e in src_state.trace]
    return compiled, machine


# -- pass-level unit tests -----------------------------------------------------------

def test_const_prop_folds_chains():
    prog = {"main": func("main", (), ("r",), block(
        set_("a", lit(3)), set_("b", var("a") * 4),
        set_("r", var("b") + var("a"))))}
    flat = const_prop_program(flatten_program(prog))
    from repro.compiler.flatimp import FSetLit

    # Everything folds to a single constant for r.
    lits = [s for s in flat["main"].body if isinstance(s, FSetLit)]
    assert any(s.value == 15 for s in lits)


def test_const_prop_kills_at_joins():
    prog = {"main": func("main", ("c",), ("r",), block(
        set_("a", lit(1)),
        if_(var("c"), set_("a", lit(2)), block()),
        set_("r", var("a"))))}
    check_opt(prog, args=(0,))
    check_opt(prog, args=(1,))


def test_const_prop_folds_constant_branch():
    prog = {"main": func("main", (), ("r",), block(
        set_("c", lit(1)),
        if_(var("c"), set_("r", lit(10)), set_("r", lit(20)))))}
    flat = const_prop_program(flatten_program(prog))
    from repro.compiler.flatimp import FIf

    assert not any(isinstance(s, FIf) for s in flat["main"].body)
    check_opt(prog)


def test_dce_drops_dead_code_keeps_effects():
    prog = {"main": func("main", (), ("r",), block(
        set_("dead", lit(1) + 2),
        interact([], "MMIOWRITE", lit(0x10024000), lit(5)),
        set_("r", lit(7))))}
    flat = dce_program(flatten_program(prog))
    from repro.compiler.flatimp import FInteract

    body = flat["main"].body
    assert any(isinstance(s, FInteract) for s in body)
    assert not any(getattr(s, "dst", None) == "dead" for s in body)
    check_opt(prog)


@pytest.mark.parametrize("program", [lightbulb_program, doorlock_program])
def test_flattening_adds_no_dead_temporaries(program):
    flat = flatten_program(program())
    assert dce_program(flat) == flat


def test_inliner_respects_size_limit():
    big_body = block(*[set_("x%d" % i, lit(i)) for i in range(100)],
                     set_("b", lit(0)))
    prog = {
        "small": func("small", ("a",), ("b",), set_("b", var("a") + 1)),
        "big": func("big", ("a",), ("b",), big_body),
        "main": func("main", (), ("r",), block(
            call(("x",), "small", lit(1)),
            call(("y",), "big", lit(2)),
            set_("r", var("x") + var("y")))),
    }
    flat = inline_program(flatten_program(prog), max_size=40)
    from repro.compiler.flatimp import FCall

    calls = [s for s in flat["main"].body if isinstance(s, FCall)]
    assert [c.func for c in calls] == ["big"]  # small inlined, big not
    check_opt(prog)


def test_inliner_renames_avoid_capture():
    prog = {
        "h": func("h", ("a",), ("b",), block(set_("t", var("a") * 2),
                                             set_("b", var("t") + 1))),
        "main": func("main", (), ("r",), block(
            set_("t", lit(100)),  # same name as callee-local
            call(("x",), "h", lit(3)),
            set_("r", var("t") + var("x")))),
    }
    check_opt(prog)  # 100 + 7


def test_stackalloc_bodies_not_inlined_but_optimized():
    prog = {
        "withbuf": func("withbuf", (), ("r",), stackalloc("p", 8, block(
            store4(var("p"), lit(9)), set_("r", load4(var("p")))))),
        "main": func("main", (), ("r",), call(("r",), "withbuf")),
    }
    check_opt(prog)


# -- whole-pipeline differentials ---------------------------------------------------

def test_loops_and_io_preserved():
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            interact(["v"], "MMIOREAD", lit(0x10024048)),
            set_("s", var("s") + var("v")),
            set_("i", var("i") + 1)))))}
    check_opt(prog, args=(6,))


def test_memory_programs_preserved():
    prog = {"main": func("main", ("p",), ("r",), block(
        store4(var("p"), lit(0x1111)),
        store4(var("p") + 4, load4(var("p")) + 1),
        set_("r", load4(var("p") + 4))))}
    check_opt(prog, args=(0x4000,), data=bytes(16))


def test_optimizer_on_the_lightbulb_itself():
    from repro.bedrock2.semantics import to_mmio_triples
    from repro.riscv.machine import RiscvMachine
    from repro.sw.program import lightbulb_program, make_platform

    prog = lightbulb_program()
    plat1 = make_platform()
    rets, state = run_function(prog, "lightbulb_service", [2],
                               ext=plat1.ext_handler())
    src_trace = to_mmio_triples(state.trace)
    compiled = compile_program_optimized(prog, entry="main",
                                         stack_top=1 << 18)
    plat2 = make_platform()
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 18,
                                        mmio_bus=plat2.bus)
    machine.run(3_000_000, stop=lambda m: len(m.trace) >= len(src_trace))
    assert machine.trace[:len(src_trace)] == src_trace


def test_optimizer_actually_wins():
    """The point of the baseline: optimized code executes fewer
    instructions than the verified compiler's output."""
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            set_("a", var("i") * 2),
            set_("b", var("a") + 3),
            set_("s", var("s") + var("b")),
            set_("i", var("i") + 1)))))}
    naive = compile_program(prog, entry="main")
    opt = compile_program_optimized(prog, entry="main")
    _, m1 = run_compiled(naive, (200,))
    _, m2 = run_compiled(opt, (200,))
    r1, _ = run_compiled(naive, (200,))
    r2, _ = run_compiled(opt, (200,))
    assert r1 == r2
    assert m2.instret < m1.instret


# -- generated programs ----------------------------------------------------------------

NAMES = ["a", "b", "c"]


@st.composite
def gen_cmd(draw, depth=2):
    kinds = ["set", "seq", "if", "io"] + (["while"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "set":
        def gen_expr(d=2):
            if d == 0 or draw(st.booleans()):
                if draw(st.booleans()):
                    return lit(draw(st.integers(0, 2**32 - 1)))
                return var(draw(st.sampled_from(NAMES)))
            op = draw(st.sampled_from(list(A.BINOPS)))
            return type(var("a"))(A.EOp(op, gen_expr(d - 1).node,
                                        gen_expr(d - 1).node))
        return set_(draw(st.sampled_from(NAMES)), gen_expr())
    if kind == "seq":
        return block(draw(gen_cmd(depth=max(0, depth - 1))),
                     draw(gen_cmd(depth=max(0, depth - 1))))
    if kind == "if":
        return if_(var(draw(st.sampled_from(NAMES))),
                   draw(gen_cmd(depth=max(0, depth - 1))),
                   draw(gen_cmd(depth=max(0, depth - 1))))
    if kind == "while":
        counter = "n%d" % depth
        body = draw(gen_cmd(depth=depth - 1))
        return block(set_(counter, lit(draw(st.integers(0, 4)))),
                     while_(var(counter),
                            block(body, set_(counter, var(counter) - 1))))
    return interact([draw(st.sampled_from(NAMES))], "MMIOREAD",
                    lit(0x10024000))


# The explain phase re-runs a failing example under a line tracer: with
# it, one failing run took three times as long and several times the
# memory.
@settings(max_examples=70, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
@given(gen_cmd(depth=3),
       st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
def test_generated_programs_optimize_correctly(cmd, args):
    prog = {"main": func("main", tuple(NAMES), ("a",), cmd)}
    check_opt(prog, args=tuple(args))


def test_parameter_read_in_a_loop_keeps_its_register():
    """A program the property above found. The parameter ``c`` is read at
    the top of the loop body and nowhere after, so its textual range ends
    inside the loop, yet every iteration reads it again. `_live_ranges`
    must widen a range that straddles a loop boundary to the whole loop:
    without that, the body's temporaries cycle through the free registers
    into ``c``'s, the second iteration reads a nonzero ``c``, and the
    compiled program makes one MMIO read where the source makes two."""
    a = var("a")
    body = block(
        block(if_(var("c"), set_("a", (a + a) + 0),
                  interact(["b"], "MMIOREAD", lit(0x10024000))),
              block(set_("a", a + (a + a)),
                    block(set_("a", (a + a) + a),
                          set_("a", (a + a) + (a + a))))),
        set_("n3", var("n3") - 1))
    cmd = block(set_("n3", lit(2)), while_(var("n3"), body))
    check_opt({"main": func("main", tuple(NAMES), ("a",), cmd)},
              args=(0, 0, 0))
