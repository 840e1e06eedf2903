#!/usr/bin/env python3
"""Quickstart: one small program through every layer of the verified stack.

We write a GCD routine in Bedrock2, verify properties of it with the
program logic (including termination via a decreasing measure), compile it
to RV32IM, and run the binary on three machines: the ISA-level semantics,
the single-cycle Kami spec processor, and the 4-stage pipelined Kami
processor -- checking they all agree.

Run:  python examples/quickstart.py
"""

from repro.bedrock2.builder import block, call, func, set_, var, while_
from repro.bedrock2.extspec import MMIOSpec
from repro.bedrock2.semantics import run_function
from repro.bedrock2.vcgen import FunctionSpec, LoopSpec, verify_function
from repro.compiler import compile_program, run_compiled
from repro.kami.framework import ExternalWorld
from repro.kami.refinement import build_pipelined_system, build_spec_system
from repro.logic import terms as T

# ---------------------------------------------------------------------------
# 1. Write the program (Euclid's algorithm).

def _gcd_invariant(st):
    # Ghost-variable idiom: a0/b0 snapshot the inputs and are never
    # modified, so the invariant can relate loop state to the arguments:
    # if b started at zero, the loop never ran and (a, b) are untouched.
    return T.implies(T.eq(st.locals["b0"], T.const(0)),
                     T.and_(T.eq(st.locals["a"], st.locals["a0"]),
                            T.eq(st.locals["b"], st.locals["b0"])))


GCD = {
    "gcd": func("gcd", ("a", "b"), ("a",), block(
        set_("a0", var("a")),
        set_("b0", var("b")),
        while_(var("b"), block(
            set_("t", var("b")),
            set_("b", var("a").umod(var("b"))),
            set_("a", var("t")),
        ), spec=LoopSpec(
            invariant=_gcd_invariant,
            # Total correctness: the unsigned measure b strictly decreases
            # (a mod b < b for b != 0, which holds on the loop's path).
            measure=lambda st: st.locals["b"],
        )),
    )),
    "main": func("main", ("a", "b"), ("r",),
                 call(("r",), "gcd", var("a"), var("b"))),
}

# ---------------------------------------------------------------------------
# 2. Verify with the program logic: termination (the measure obligation is
#    checked at every back edge) plus a functional property.


def post(args, rets):
    a, b = args
    return {"gcd(a, 0) == a": T.implies(T.eq(b, T.const(0)),
                                        T.eq(rets[0], a))}


report = verify_function(GCD, "gcd", {"gcd": FunctionSpec(post=post)},
                         MMIOSpec([]))
print("program logic:", report)

# ---------------------------------------------------------------------------
# 3. Run it in the source semantics.

(src_result,), _ = run_function(GCD, "main", [462, 1071])
print("source semantics:     gcd(462, 1071) =", src_result)

# ---------------------------------------------------------------------------
# 4. Compile to RV32IM and run on the ISA-level machine.

compiled = compile_program(GCD, entry="main", stack_top=0x8000)
print("compiled: %d instructions, static stack bound %d bytes"
      % (len(compiled.instrs), compiled.stack_bound))
(isa_result,), machine = run_compiled(compiled, [462, 1071], mem_size=1 << 15)
print("ISA-level machine:    gcd(462, 1071) =", isa_result,
      "(%d instructions executed)" % machine.instret)

# ---------------------------------------------------------------------------
# 5. Run the same binary on both Kami processors (no devices attached).


class NoDevices(ExternalWorld):
    def call(self, method, args):
        raise KeyError(method)


def drained(proc):
    return all(not proc.regs.get(q) for q in ("f2d", "d2e", "e2w"))


def run_on(system, steps):
    proc = system.modules[0]
    proc.regs["rf"][10] = 462   # a0
    proc.regs["rf"][11] = 1071  # a1
    system.run(steps, stop=lambda s: proc.regs["pc"] == compiled.halt_pc
               and drained(proc))
    return proc.regs["rf"][10]


spec_result = run_on(build_spec_system(compiled.image, NoDevices(),
                                       ram_words=1 << 13), 20_000)
print("Kami spec processor:  gcd(462, 1071) =", spec_result)

pipe_result = run_on(
    build_pipelined_system(compiled.image, NoDevices(), ram_words=1 << 13,
                           icache_words=len(compiled.image) // 4 + 4),
    200_000)
print("Kami p4mm (pipeline): gcd(462, 1071) =", pipe_result)

assert src_result == isa_result == spec_result == pipe_result == 21
print("\nall four layers agree: gcd(462, 1071) = 21")
