"""Compiler correctness as a forward-simulation test oracle (paper §5.3).

The paper proves: every successful source execution has a corresponding
machine execution with the same I/O trace and postcondition. Here the same
statement is checked differentially, per phase and end-to-end:

  source interpreter  ==  FlatImp interpreter  ==  RISC-V machine

on return values, I/O traces, and designated memory regions -- over a
hand-written corpus plus hypothesis-generated programs. The machine runs
with XAddrs tracking enabled, so these tests also confirm compiled code
never self-modifies (paper section 5.6).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock2 import ast_ as A
from repro.bedrock2.builder import (
    block, call, func, if_, interact, lit, load1, load2, load4, set_,
    stackalloc, store1, store2, store4, var, while_,
)
from repro.bedrock2.semantics import ExtHandler, Memory, UndefinedBehavior, run_function
from repro.compiler import compile_program, run_compiled
from repro.compiler.flatten import flatten_function, flatten_program
from repro.compiler.flatimp import run_flat_function


class ScriptedBus:
    """An MMIO bus yielding a deterministic value stream, so that the source
    interpreter and the machine observe the same external world."""

    def __init__(self, base=0x10024000, size=0x1000):
        self.base = base
        self.size = size
        self.value = 0
        self.writes = []

    def is_mmio(self, addr):
        return self.base <= addr < self.base + self.size

    def read(self, addr):
        self.value = (self.value * 7 + addr) & 0xFFFFFFFF
        return self.value

    def write(self, addr, value):
        self.writes.append((addr, value))


class ScriptedExt(ExtHandler):
    def __init__(self, bus):
        self.bus = bus

    def call(self, action, args, mem):
        if action == "MMIOREAD":
            return (self.bus.read(args[0]),)
        if action == "MMIOWRITE":
            self.bus.write(args[0], args[1])
            return ()
        raise UndefinedBehavior(action)


DATA_BASE = 0x4000  # a small owned data region inside machine memory


def check_compile(prog, fname="main", args=(), n_rets=1, data=b"",
                  uses_io=False):
    """Source-vs-FlatImp-vs-machine differential run."""
    # 1. Source semantics.
    src_bus = ScriptedBus()
    src_mem = Memory.from_regions([(DATA_BASE, data)]) if data else Memory()
    src_rets, src_state = run_function(prog, fname, args, mem=src_mem,
                                       ext=ScriptedExt(src_bus))
    # 2. FlatImp semantics (phase-1 differential).
    flat_bus = ScriptedBus()
    flat_mem = Memory.from_regions([(DATA_BASE, data)]) if data else Memory()
    flat_rets, _, flat_mem_out, flat_trace = run_flat_function(
        flatten_program(prog), fname, args, mem=flat_mem,
        ext=ScriptedExt(flat_bus))
    assert flat_rets == src_rets
    assert flat_trace == src_state.trace
    # 3. Machine semantics (whole-compiler differential).
    mach_bus = ScriptedBus()
    compiled = compile_program(prog, entry=fname)
    rets, machine = run_compiled(compiled, args, n_rets=n_rets,
                                 mmio_bus=mach_bus,
                                 extra_memory=[(DATA_BASE, data)] if data else ())
    assert rets == src_rets[:n_rets]
    assert machine.trace == [e.to_mmio_triple() for e in src_state.trace]
    if data:
        src_snapshot = src_state.mem.snapshot()
        for i in range(len(data)):
            assert machine.mem[DATA_BASE + i] == src_snapshot[DATA_BASE + i], \
                "memory mismatch at offset %d" % i
    return compiled, machine


# -- corpus ------------------------------------------------------------------------

def test_constant_return():
    prog = {"main": func("main", (), ("r",), set_("r", lit(42)))}
    check_compile(prog)


def test_arith_all_ops():
    ops = ["add", "sub", "mul", "mulhuu", "divu", "remu", "and", "or",
           "xor", "sru", "slu", "srs", "lts", "ltu", "eq"]
    body = [set_("r", lit(0))]
    for i, op in enumerate(ops):
        body.append(set_("t%d" % i,
                         type(var("x"))(A.EOp(op, var("x").node, var("y").node))))
        body.append(set_("r", var("r") + var("t%d" % i)))
    prog = {"main": func("main", ("x", "y"), ("r",), block(*body))}
    check_compile(prog, args=(0x12345678, 0x9ABCDEF0))
    check_compile(prog, args=(5, 0))        # division by zero path
    check_compile(prog, args=(0x80000000, 0xFFFFFFFF))


def test_large_literals():
    prog = {"main": func("main", (), ("r",), block(
        set_("a", lit(0xDEADBEEF)),
        set_("b", lit(0x800)),
        set_("c", lit(0x7FF)),
        set_("d", lit(0xFFFFF800)),
        set_("r", var("a") + var("b") + var("c") + var("d")),
    ))}
    check_compile(prog)


def test_if_else_chains():
    prog = {"main": func("main", ("x",), ("r",), block(
        if_(var("x") < 10,
            if_(var("x") < 5, set_("r", lit(1)), set_("r", lit(2))),
            if_(var("x") == 10, set_("r", lit(3)), set_("r", lit(4)))),
    ))}
    for x in (0, 5, 10, 11):
        check_compile(prog, args=(x,))


def test_loop_sum():
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            set_("s", var("s") + var("i")),
            set_("i", var("i") + 1))),
    ))}
    check_compile(prog, args=(100,))


def test_nested_loops():
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            set_("j", lit(0)),
            while_(var("j") < var("i"), block(
                set_("s", var("s") + 1),
                set_("j", var("j") + 1))),
            set_("i", var("i") + 1))),
    ))}
    check_compile(prog, args=(12,))


def test_memory_operations_all_sizes():
    prog = {"main": func("main", ("p",), ("r",), block(
        store4(var("p"), lit(0x11223344)),
        store2(var("p") + 4, lit(0xDEAD)),
        store1(var("p") + 6, lit(0x7F)),
        set_("r", load4(var("p")) + load2(var("p") + 4) + load1(var("p") + 6)),
    ))}
    check_compile(prog, args=(DATA_BASE,), data=bytes(16))


def test_byte_stores_do_not_clobber_neighbors():
    prog = {"main": func("main", ("p",), ("r",), block(
        store4(var("p"), lit(0xAAAAAAAA)),
        store1(var("p") + 1, lit(0xBB)),
        set_("r", load4(var("p"))),
    ))}
    check_compile(prog, args=(DATA_BASE,), data=bytes(8))


def test_stackalloc_compiles():
    prog = {"main": func("main", ("x",), ("r",), stackalloc("p", 16, block(
        store4(var("p"), var("x")),
        store4(var("p") + 4, var("x") * 2),
        set_("r", load4(var("p")) + load4(var("p") + 4)),
    )))}
    check_compile(prog, args=(21,))


def test_function_calls():
    prog = {
        "square": func("square", ("a",), ("b",), set_("b", var("a") * var("a"))),
        "sumsq": func("sumsq", ("a", "b"), ("c",), block(
            call(("x",), "square", var("a")),
            call(("y",), "square", var("b")),
            set_("c", var("x") + var("y")))),
        "main": func("main", ("n",), ("r",), call(("r",), "sumsq",
                                                  var("n"), var("n") + 1)),
    }
    check_compile(prog, args=(10,))


def test_multiple_return_values():
    prog = {
        "divmod": func("divmod", ("a", "b"), ("q", "r"), block(
            set_("q", var("a").udiv(var("b"))),
            set_("r", var("a").umod(var("b"))))),
        "main": func("main", ("a", "b"), ("x", "y"), call(
            ("x", "y"), "divmod", var("a"), var("b"))),
    }
    check_compile(prog, args=(37, 5), n_rets=2)


def test_mmio_io_sequence():
    prog = {"main": func("main", (), ("r",), block(
        interact(["a"], "MMIOREAD", lit(0x10024048)),
        interact(["b"], "MMIOREAD", lit(0x1002404C)),
        interact([], "MMIOWRITE", lit(0x10024050), var("a") ^ var("b")),
        set_("r", var("a") + var("b")),
    ))}
    check_compile(prog, uses_io=True)


def test_io_inside_loop():
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            interact(["v"], "MMIOREAD", lit(0x10024048)),
            interact([], "MMIOWRITE", lit(0x1002404C), var("v")),
            set_("s", var("s") + var("v")),
            set_("i", var("i") + 1))),
    ))}
    check_compile(prog, args=(5,))


def test_register_pressure_spills():
    # 30 live variables forces spilling; all must survive.
    n = 30
    body = [set_("v%d" % i, lit(i * 3 + 1)) for i in range(n)]
    acc = var("v0")
    for i in range(1, n):
        acc = acc + var("v%d" % i)
    body.append(set_("r", acc))
    prog = {"main": func("main", (), ("r",), block(*body))}
    compiled, _ = check_compile(prog)
    expected = sum(i * 3 + 1 for i in range(n)) & 0xFFFFFFFF
    rets, _ = run_compiled(compiled, (), n_rets=1)
    assert rets == (expected,)


def test_spilled_vars_in_loop():
    n = 20
    setup = [set_("v%d" % i, lit(i)) for i in range(n)]
    prog = {"main": func("main", ("k",), ("r",), block(
        *setup,
        set_("r", lit(0)),
        while_(var("k"), block(
            *[set_("v%d" % i, var("v%d" % i) + 1) for i in range(n)],
            set_("k", var("k") - 1))),
        *[set_("r", var("r") + var("v%d" % i)) for i in range(n)],
    ))}
    check_compile(prog, args=(7,))


def test_deep_call_chain_stack_bound():
    prog = {"main": func("main", ("x",), ("r",), call(("r",), "f1", var("x")))}
    for i in range(1, 6):
        callee = "f%d" % (i + 1) if i < 5 else None
        if callee:
            body = block(call(("t",), callee, var("a") + 1), set_("b", var("t")))
        else:
            body = set_("b", var("a") + 1)
        prog["f%d" % i] = func("f%d" % i, ("a",), ("b",), body)
    compiled, _ = check_compile(prog, args=(0,))
    # Static bound covers main + 5 frames.
    assert compiled.stack_bound >= sum(
        compiled.frame_sizes["f%d" % i] for i in range(1, 6))


def test_flat_interpreter_rejects_unassigned_read():
    # What keeps a flattening that reads a variable before assigning it
    # from passing the differential above.
    fn = func("main", (), ("r",), set_("r", var("x") + 1))
    with pytest.raises(UndefinedBehavior, match="unbound"):
        run_flat_function({"main": flatten_function(fn)}, "main", ())


def test_recursion_rejected():
    from repro.compiler.codegen import CompileError
    prog = {"main": func("main", ("x",), ("r",),
                         call(("r",), "main", var("x")))}
    with pytest.raises(CompileError):
        compile_program(prog, entry="main")


def test_compiled_code_never_self_modifies():
    # XAddrs tracking is on in run_compiled's machine; a store into the
    # instruction range would fault on the next fetch. Run a program that
    # does plenty of stack traffic near (but legally apart from) the code.
    prog = {"main": func("main", ("n",), ("s",), block(
        set_("s", lit(0)), set_("i", lit(0)),
        while_(var("i") < var("n"), block(
            stackalloc("p", 8, block(
                store4(var("p"), var("i")),
                set_("s", var("s") + load4(var("p"))))),
            set_("i", var("i") + 1))),
    ))}
    _, machine = check_compile(prog, args=(50,))
    assert machine.instret > 100


# -- hypothesis: generated programs ------------------------------------------------

NAMES = ["a", "b", "c", "d"]


@st.composite
def gen_expr(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return lit(draw(st.integers(0, 2**32 - 1)))
        return var(draw(st.sampled_from(NAMES)))
    op = draw(st.sampled_from(list(A.BINOPS)))
    lhs = draw(gen_expr(depth=depth - 1))
    rhs = draw(gen_expr(depth=depth - 1))
    return type(lhs)(A.EOp(op, lhs.node, rhs.node))


@st.composite
def gen_cmd(draw, depth=2):
    kinds = ["set", "seq", "if", "io"] + (["while"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "set":
        return set_(draw(st.sampled_from(NAMES)), draw(gen_expr()))
    if kind == "seq":
        return block(draw(gen_cmd(depth=max(0, depth - 1))),
                     draw(gen_cmd(depth=max(0, depth - 1))))
    if kind == "if":
        return if_(draw(gen_expr()), draw(gen_cmd(depth=max(0, depth - 1))),
                   draw(gen_cmd(depth=max(0, depth - 1))))
    if kind == "while":
        # Per-depth counter name: nested loops cannot clobber an outer
        # counter, guaranteeing termination of generated programs.
        counter = "n%d" % depth
        body = draw(gen_cmd(depth=depth - 1))
        return block(set_(counter, lit(draw(st.integers(0, 4)))),
                     while_(var(counter),
                            block(body, set_(counter, var(counter) - 1))))
    return interact([draw(st.sampled_from(NAMES))], "MMIOREAD", lit(0x10024000))


@settings(max_examples=40, deadline=None)
@given(gen_cmd(depth=3),
       st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4))
def test_generated_program_forward_simulation(cmd, args):
    prog = {"main": func("main", tuple(NAMES), ("a",), cmd)}
    check_compile(prog, args=tuple(args))
