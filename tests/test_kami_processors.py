"""Tests for the Kami processors: spec correctness, pipeline refinement,
processor-ISA consistency (paper sections 5.5, 5.7, 5.8)."""

import random

import pytest

from repro.bedrock2.builder import (
    block, call, func, interact, lit, set_, var, while_,
)
from repro.compiler import compile_program
from repro.core.end2end import DOORLOCK, LIGHTBULB, compiled_image
from repro.kami import decexec
from repro.kami.framework import ExternalWorld
from repro.kami.memory import ram_snapshot
from repro.kami.refinement import (
    build_pipelined_system, build_spec_system, check_refinement,
)
from repro.riscv import insts as I
from repro.riscv.encode import encode_program
from repro.riscv.insts import InvalidInstruction
from repro.riscv.machine import RiscvMachine


class NullWorld(ExternalWorld):
    def call(self, method, args):
        raise KeyError(method)


class ScriptedWorld(ExternalWorld):
    """Deterministic MMIO device: reads follow a fixed recurrence; writes
    are accepted. Fresh instances replay identically."""

    def __init__(self):
        self.state = 0
        self.writes = []

    def call(self, method, args):
        if method == "mmioRead":
            self.state = (self.state * 5 + args[0] + 1) & 0xFFFFFFFF
            return self.state
        if method == "mmioWrite":
            self.writes.append((args[0], args[1]))
            return None
        raise KeyError(method)


def asm(*instrs):
    return encode_program(list(instrs))


SPIN = I.jal(0, 0)  # halt: jump-to-self


# -- spec processor vs ISA machine (kstep1_sound analogue, §5.8) -----------------

class LockstepBus:
    """Adapter giving the RiscvMachine the same world as a Kami system."""

    def __init__(self, world, ram_bytes):
        self.world = world
        self.ram_bytes = ram_bytes

    def is_mmio(self, addr):
        return addr >= self.ram_bytes

    def read(self, addr):
        return self.world.call("mmioRead", (addr,))

    def write(self, addr, value):
        self.world.call("mmioWrite", (addr, value))


PROGRAMS = {
    "arith": asm(
        I.i_type("addi", 1, 0, 100),
        I.i_type("addi", 2, 0, 23),
        I.r_type("add", 3, 1, 2),
        I.r_type("sub", 4, 1, 2),
        I.r_type("mul", 5, 1, 2),
        I.r_type("divu", 6, 1, 2),
        I.r_type("and", 7, 1, 2),
        I.r_type("xor", 8, 1, 2),
        SPIN,
    ),
    "branchy": asm(
        I.i_type("addi", 1, 0, 10),     # counter
        I.i_type("addi", 2, 0, 0),      # acc
        # loop: acc += counter; counter -= 1; bne counter, x0, loop
        I.r_type("add", 2, 2, 1),
        I.i_type("addi", 1, 1, -1),
        I.branch("bne", 1, 0, -8),
        SPIN,
    ),
    "memory": asm(
        I.u_type("lui", 1, 0x1),        # x1 = 0x1000
        I.i_type("addi", 2, 0, -1),     # x2 = 0xFFFFFFFF
        I.store("sw", 1, 2, 0),
        I.store("sb", 1, 0, 1),         # clear byte 1
        I.load("lw", 3, 1, 0),          # x3 = 0xFFFF00FF
        I.load("lb", 4, 1, 3),          # x4 = sign-extended 0xFF
        I.load("lhu", 5, 1, 2),         # x5 = 0xFFFF
        SPIN,
    ),
    "jumps": asm(
        I.jal(1, 8),                    # skip next
        I.i_type("addi", 2, 0, 99),     # (skipped)
        I.i_type("addi", 3, 0, 7),
        I.jalr(4, 1, 4),                # jump to x1+4 = 8: re-executes addi x3
        SPIN,
    ),
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_spec_processor_matches_isa_machine(name):
    """Lock-step differential execution: after every spec-processor step,
    registers and pc must match the software-oriented ISA semantics."""
    image = PROGRAMS[name]
    world = ScriptedWorld()
    system = build_spec_system(image, world, ram_words=1 << 12)
    proc = system.modules[0]
    machine = RiscvMachine.with_program(image, mem_size=1 << 14,
                                        mmio_bus=LockstepBus(ScriptedWorld(),
                                                             1 << 14))
    for _ in range(60):
        if machine.pc == proc.regs["pc"] and \
           decode_spin(image, machine.pc):
            break
        label = system.step()
        if label is None:
            break
        machine.step()
        assert proc.regs["pc"] == machine.pc, name
        for r in range(32):
            assert proc.regs["rf"][r] == machine.get_register(r), \
                "x%d mismatch in %s" % (r, name)


def decode_spin(image, pc):
    return image[pc:pc + 4] == bytes.fromhex("6f000000")


def _raises_invalid(decode, raw):
    try:
        decode(raw)
    except InvalidInstruction:
        return True
    return False


def test_decode_signals_memo_matches_uncached_decode():
    """Both app images word by word, then 100k random words: the memo
    returns what decoding returns, and an invalid word raises on every
    call and is never cached."""
    words = []
    for kind in (LIGHTBULB, DOORLOCK):
        image = compiled_image(kind).image
        words += [int.from_bytes(image[i:i + 4], "little")
                  for i in range(0, len(image) - 3, 4)]
    rng = random.Random(2021)
    words += [rng.getrandbits(32) for _ in range(100_000)]
    invalid = 0
    for raw in words:
        if _raises_invalid(decexec._signals, raw):
            invalid += 1
            assert _raises_invalid(decexec.decode_signals, raw)
            assert _raises_invalid(decexec.decode_signals, raw)
            assert raw not in decexec._SIGNALS_CACHE
        else:
            assert decexec.decode_signals(raw) == decexec._signals(raw)
            assert decexec.decode_signals(raw) is decexec._SIGNALS_CACHE[raw]
    assert 0 < invalid < len(words)
    assert len(decexec._SIGNALS_CACHE) <= decexec._SIGNALS_CACHE_MAX


def test_spec_processor_mmio_trace():
    # lw x1, 0(x2) with x2 pointing outside RAM produces an mmioRead label.
    image = asm(
        I.u_type("lui", 2, 0x10024),      # 0x10024000, beyond 16KB RAM
        I.load("lw", 1, 2, 0),
        I.store("sw", 2, 1, 4),
        SPIN,
    )
    world = ScriptedWorld()
    system = build_spec_system(image, world, ram_words=1 << 12)
    system.run(40, stop=lambda s: len(s.mmio_trace()) >= 2)
    trace = system.mmio_trace()
    assert trace[0][0] == "ld" and trace[0][1] == 0x10024000
    assert trace[1][0] == "st" and trace[1][1] == 0x10024004
    assert trace[1][2] == trace[0][2]  # stored what was read


# -- pipelined processor ----------------------------------------------------------

def pipelined_result(image, reg, max_steps=20000, icache_words=64,
                     world=None):
    system = build_pipelined_system(image, world or NullWorld(),
                                    ram_words=1 << 12,
                                    icache_words=icache_words)
    proc = system.modules[0]
    system.run(max_steps)
    return proc.regs["rf"][reg], system


def test_pipeline_executes_straightline():
    value, _ = pipelined_result(PROGRAMS["arith"], 3)
    assert value == 123


def test_pipeline_executes_loop_with_btb():
    value, system = pipelined_result(PROGRAMS["branchy"], 2)
    assert value == sum(range(1, 11))
    proc = system.modules[0]
    assert proc.regs["btb"], "BTB should have learned the loop branch"


def test_pipeline_byte_enables():
    value, system = pipelined_result(PROGRAMS["memory"], 3)
    assert value == 0xFFFF00FF
    proc = system.modules[0]
    assert proc.regs["rf"][4] == 0xFFFFFFFF
    assert proc.regs["rf"][5] == 0xFFFF


def test_pipeline_icache_filled_eagerly():
    system = build_pipelined_system(PROGRAMS["arith"], NullWorld(),
                                    ram_words=1 << 12, icache_words=32)
    proc = system.modules[0]
    mem = system.modules[1]
    # Run until the fill completes.
    system.run(200, stop=lambda s: proc.regs["icache_ready"] == 1)
    assert proc.regs["icache_ready"] == 1
    snapshot = ram_snapshot(mem)
    assert proc.regs["icache"] == snapshot[:32]


def test_pipeline_squashes_wrong_path():
    # A taken branch over an MMIO write: the wrong-path store must never
    # reach the device.
    image = asm(
        I.u_type("lui", 2, 0x10024),
        I.i_type("addi", 1, 0, 1),
        I.branch("bne", 1, 0, 8),       # taken: skip the store
        I.store("sw", 2, 1, 0),         # wrong path!
        I.i_type("addi", 3, 0, 5),
        SPIN,
    )
    world = ScriptedWorld()
    value, system = pipelined_result(image, 3, world=world, icache_words=32)
    assert value == 5
    assert world.writes == []
    assert system.mmio_trace() == []


# -- refinement (§5.7) --------------------------------------------------------------

REFINEMENT_PROGRAMS = [
    PROGRAMS["arith"],
    PROGRAMS["branchy"],
    PROGRAMS["memory"],
    PROGRAMS["jumps"],
    # MMIO-heavy: poll an address until it returns an even value, then echo.
    asm(
        I.u_type("lui", 2, 0x10024),
        I.load("lw", 1, 2, 0),          # poll:
        I.i_type("andi", 3, 1, 1),
        I.branch("bne", 3, 0, -8),      # odd -> poll again
        I.store("sw", 2, 1, 4),
        SPIN,
    ),
]


@pytest.mark.parametrize("idx", range(len(REFINEMENT_PROGRAMS)))
def test_pipeline_refines_spec(idx):
    image = REFINEMENT_PROGRAMS[idx]
    result = check_refinement(image, ScriptedWorld, impl_steps=3000,
                              ram_words=1 << 12, icache_words=64,
                              spec_step_budget=3000)
    assert result.ok, result.detail


def test_refinement_on_compiled_bedrock2_program():
    prog = {"main": func("main", (), ("r",), block(
        set_("i", lit(0)), set_("r", lit(0)),
        while_(var("i") < 5, block(
            interact(["v"], "MMIOREAD", lit(0x10024048)),
            interact([], "MMIOWRITE", lit(0x1002404C), var("v") + var("i")),
            set_("r", var("r") + var("v")),
            set_("i", var("i") + 1),
        )),
    ))}
    compiled = compile_program(prog, entry="main", stack_top=0x4000)
    result = check_refinement(compiled.image, ScriptedWorld,
                              impl_steps=20000, ram_words=1 << 12,
                              icache_words=256, spec_step_budget=20000)
    assert result.ok, result.detail
    assert len(result.impl_trace) == 10  # 5 reads + 5 writes


def test_stale_instructions_break_refinement():
    """Self-modifying code diverges between I$ and memory -- the hazard of
    paper §5.6 that the XAddrs discipline exists to prevent. The pipelined
    processor keeps executing the stale cached instruction; the spec
    re-fetches from memory. Demonstrate the divergence is real."""
    image = asm(
        # Overwrite the instruction at offset 16 (addi x3,x0,7) with
        # addi x3, x0, 42 = 0x02A00193, then execute it.
        I.u_type("lui", 1, 0x02A00),
        I.i_type("addi", 1, 1, 0x193),
        I.i_type("addi", 2, 0, 16),
        I.store("sw", 2, 1, 0),
        I.i_type("addi", 3, 0, 7),      # offset 16: stale version
        SPIN,
    )
    spec_sys = build_spec_system(image, NullWorld(), ram_words=1 << 12)
    spec_proc_ = spec_sys.modules[0]
    spec_sys.run(20)
    impl_sys = build_pipelined_system(image, NullWorld(), ram_words=1 << 12,
                                      icache_words=32)
    impl_proc = impl_sys.modules[0]
    impl_sys.run(3000)
    assert spec_proc_.regs["rf"][3] == 42      # spec sees the new instruction
    assert impl_proc.regs["rf"][3] == 7        # pipeline executed stale I$
