"""Table 2: parameterization throughout the stack (paper section 6).

The paper's Table 2 lists eight parameters threaded across layers
(horizontal modularity). This module enumerates the same parameters as
they exist in this codebase, each with a *witness*: a callable that
instantiates the parameter two different ways and checks the stack still
composes -- demonstrating, not just asserting, the modularity claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List


@dataclass
class Parameter:
    name: str
    used_in: str
    witness: Callable[[], bool]
    witness_desc: str


def _witness_ext_semantics() -> bool:
    """Swap the external-call semantics: MMIO handler vs a scripted stub."""
    from ..bedrock2.builder import block, func, interact, lit, set_, var
    from ..bedrock2.semantics import ExtHandler, run_function

    class Doubler(ExtHandler):
        def call(self, action, args, mem):
            if action == "MMIOREAD":
                return (args[0] * 2 & 0xFFFFFFFF,)
            raise AssertionError

    prog = {"f": func("f", (), ("r",), block(
        interact(["r"], "MMIOREAD", lit(21))))}
    rets, _ = run_function(prog, "f", (), ext=Doubler())
    return rets == (42,)


def _witness_ext_compiler() -> bool:
    """Swap the external-calls compiler (paper §6.3): the MMIO instance vs
    a trapping instance that lowers external calls to a magic store."""
    from ..bedrock2.builder import block, func, interact, lit, set_, var
    from ..compiler import compile_program
    from ..compiler.codegen import ExtCallCompiler, MMIOExtCallCompiler
    from ..riscv import insts as I

    class TrapCompiler(ExtCallCompiler):
        def compile_ext(self, action, bind_regs, arg_regs):
            out = [I.store("sw", arg_regs[0], arg_regs[0], 0)]
            for reg in bind_regs:
                out.append(I.i_type("addi", reg, 0, 7))
            return out

    prog = {"main": func("main", (), ("r",), block(
        interact(["r"], "MMIOREAD", lit(0x10024000))))}
    a = compile_program(prog, ext_compiler=MMIOExtCallCompiler())
    b = compile_program(prog, ext_compiler=TrapCompiler())
    return a.image != b.image and len(a.instrs) > 0 and len(b.instrs) > 0


def _witness_event_loop_invariant() -> bool:
    """The compiler-processor composition is stated for any event-loop
    invariant; witness: the end-to-end checker runs with two different
    stop conditions (invariant checkpoints)."""
    from .end2end import run_end_to_end

    a = run_end_to_end(max_units=6_000, checkpoint_every=1_000)
    b = run_end_to_end(max_units=6_000, checkpoint_every=3_000)
    return a.ok and b.ok and a.checkpoints != b.checkpoints


def _witness_bitwidth() -> bool:
    """Word operations are parameterized by width (Table 2 'bitwidth')."""
    from ..bedrock2 import word

    return (word.wrap(1 << 32) == 0 and word.signed(0xFF, 8) == -1
            and word.signed(0x7F, 8) == 0x7F)


def _witness_io_mechanism() -> bool:
    """I/O mechanisms: the same trace-predicate language specifies MMIO
    triples today and would take DMA events -- witness: predicates are
    generic over event alphabets."""
    from ..traces.predicates import Step, Star

    dma_like = Star(Step(lambda ev, env: env if ev[0] == "dma" else None))
    return dma_like.matches([("dma", 1, 2), ("dma", 3, 4)]) and \
        not dma_like.matches([("ld", 0, 0)])


def _witness_nonmem_semantics() -> bool:
    """ISA nonmemory load/store semantics are a machine parameter: with a
    bus attached they are MMIO; without, they are UB (paper §6.2)."""
    from ..riscv import insts as I
    from ..riscv.encode import encode_program
    from ..riscv.machine import RiscvMachine, RiscvUB

    image = encode_program([I.u_type("lui", 1, 0x10024),
                            I.load("lw", 2, 1, 0)])

    class Bus:
        def is_mmio(self, addr):
            return addr >= 0x10000000

        def read(self, addr):
            return 0xBEEF

        def write(self, addr, value):
            pass

    with_bus = RiscvMachine.with_program(image, mem_size=1 << 12, mmio_bus=Bus())
    with_bus.run(2)
    if with_bus.get_register(2) != 0xBEEF or with_bus.trace == []:
        return False
    without = RiscvMachine.with_program(image, mem_size=1 << 12)
    try:
        without.run(2)
    except RiscvUB:
        return True
    return False


def _witness_external_invariant() -> bool:
    """The program logic's external-call spec is a parameter: two MMIOSpec
    instances with different address ranges accept different programs."""
    from ..bedrock2.builder import block, func, interact, lit
    from ..bedrock2.extspec import MMIOSpec
    from ..bedrock2.vcgen import FunctionSpec, VerificationError, verify_function

    prog = {"f": func("f", (), (), block(
        interact([], "MMIOWRITE", lit(0x10012008), lit(1))))}
    wide = MMIOSpec([(0x10012000, 0x10013000)])
    narrow = MMIOSpec([(0x20000000, 0x20001000)])
    specs = {"f": FunctionSpec()}
    verify_function(prog, "f", specs, wide)
    try:
        verify_function(prog, "f", specs, narrow)
    except VerificationError:
        return True
    return False


def _witness_isa() -> bool:
    """The processors are parameterized by the shared decode/execute
    combinational logic: both use `repro.kami.decexec` (paper §5.7)."""
    import inspect

    from ..kami import pipeline_proc, spec_proc

    spec_src = inspect.getsource(spec_proc)
    pipe_src = inspect.getsource(pipeline_proc)
    return ("decode_signals" in spec_src and "decode_signals" in pipe_src
            and "exec_instr" in spec_src and "exec_instr" in pipe_src)


PARAMETERS: List[Parameter] = [
    Parameter("external-call semantics", "program logic and compiler",
              _witness_ext_semantics, "swap MMIO handler for a stub"),
    Parameter("external-calls compiler", "compiler and its proof",
              _witness_ext_compiler, "swap lw/sw lowering for a trap"),
    Parameter("event-loop invariant", "compiler-processor lemma",
              _witness_event_loop_invariant, "vary checkpoint cadence"),
    Parameter("bitwidth", "Bedrock2, ISA, processor",
              _witness_bitwidth, "word ops at widths 8 and 32"),
    Parameter("I/O mechanisms", "compiler and its proof",
              _witness_io_mechanism, "trace predicates over a DMA alphabet"),
    Parameter("I/O load/store semantics", "instruction-set specification",
              _witness_nonmem_semantics, "nonmem access: MMIO vs UB"),
    Parameter("external invariant", "ISA, compiler and its proof",
              _witness_external_invariant, "two MMIO address ranges"),
    Parameter("ISA", "processor and its proof",
              _witness_isa, "shared decode/execute in both processors"),
]


def check_all() -> List[bool]:
    return [p.witness() for p in PARAMETERS]
