"""Random-program differential testing of the pipelined processor.

The paper (§5.5) reports the baseline Kami processor had liveness bugs
"found through testing our application" and ISA bugs found during the
consistency proof. This file is that testing regime, systematized: random
RV32IM programs run to completion on the pipelined p4mm and on the
ISA-level machine, and the full architectural state must agree. Also
includes the §7.1.2 honesty check: the trace specification deliberately
does not constrain timing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kami.framework import ExternalWorld
from repro.kami.refinement import build_pipelined_system
from repro.riscv import insts as I
from repro.riscv.encode import encode_program
from repro.riscv.machine import RiscvMachine


class NullWorld(ExternalWorld):
    def call(self, method, args):
        raise KeyError(method)


SPIN = I.jal(0, 0)

# Register pool: small, to maximize hazards (RAW chains stress forwarding
# and the scoreboard); x28 is the memory base register.
REGS = [1, 2, 3, 4, 5]
MEM_BASE_REG = 28
MEM_BASE = 0x400


@st.composite
def straightline_programs(draw):
    """Random programs: ALU soup + memory ops + short forward branches,
    always ending in SPIN. Backward jumps are drawn from a fixed loop shape
    to guarantee termination."""
    body = []
    n = draw(st.integers(4, 24))
    for _ in range(n):
        kind = draw(st.sampled_from(["alu", "imm", "load", "store", "brfwd"]))
        if kind == "alu":
            body.append(I.r_type(draw(st.sampled_from(
                ["add", "sub", "mul", "mulhu", "div", "divu", "rem", "remu",
                 "sll", "srl", "sra", "slt", "sltu", "xor", "or", "and"])),
                draw(st.sampled_from(REGS)), draw(st.sampled_from(REGS)),
                draw(st.sampled_from(REGS))))
        elif kind == "imm":
            body.append(I.i_type(draw(st.sampled_from(
                ["addi", "slti", "sltiu", "xori", "ori", "andi"])),
                draw(st.sampled_from(REGS)), draw(st.sampled_from(REGS)),
                draw(st.integers(-2048, 2047))))
        elif kind == "load":
            body.append(I.load(draw(st.sampled_from(["lb", "lbu", "lh",
                                                     "lhu", "lw"])),
                               draw(st.sampled_from(REGS)), MEM_BASE_REG,
                               draw(st.integers(0, 15)) * 4))
        elif kind == "store":
            body.append(I.store(draw(st.sampled_from(["sb", "sh", "sw"])),
                                MEM_BASE_REG, draw(st.sampled_from(REGS)),
                                draw(st.integers(0, 15)) * 4))
        else:
            # Forward branch over the next instruction (always decodable).
            body.append(I.branch(draw(st.sampled_from(
                ["beq", "bne", "blt", "bge", "bltu", "bgeu"])),
                draw(st.sampled_from(REGS)), draw(st.sampled_from(REGS)), 8))
            body.append(I.i_type("addi", draw(st.sampled_from(REGS)), 0,
                                 draw(st.integers(-100, 100))))
    # A bounded backward loop to exercise the BTB and epoch machinery.
    body += [
        I.i_type("addi", 6, 0, draw(st.integers(1, 5))),   # counter
        I.r_type("add", 7, 7, 6),                          # loop:
        I.i_type("addi", 6, 6, -1),
        I.branch("bne", 6, 0, -8),
    ]
    body.append(SPIN)
    return body


def run_isa(instrs, seed_regs):
    image = encode_program(instrs)
    machine = RiscvMachine.with_program(image, mem_size=1 << 12)
    for reg, value in seed_regs.items():
        machine.set_register(reg, value)
    machine.set_register(MEM_BASE_REG, MEM_BASE)
    halt_pc = (len(instrs) - 1) * 4
    machine.run(10_000, until_pc=halt_pc)
    return machine


P4MM_BUDGET = 200_000


def run_p4mm(instrs, seed_regs):
    """Run to the halt spin; returns the processor, the system and the
    steps taken. Fetch keeps refilling ``f2d`` at the spin, so the pipe
    never drains. Instead the run stops once the BTB maps the spin to
    itself and ``e2w`` is empty: the spin has executed on the correct
    path, so (in order) everything before it has executed, and has
    retired."""
    image = encode_program(instrs)
    system = build_pipelined_system(image, NullWorld(), ram_words=1 << 10,
                                    icache_words=len(instrs) + 4)
    proc = system.modules[0]
    for reg, value in seed_regs.items():
        proc.regs["rf"][reg] = value
    proc.regs["rf"][MEM_BASE_REG] = MEM_BASE
    halt_pc = (len(instrs) - 1) * 4
    steps = system.run(P4MM_BUDGET, stop=lambda s: proc.regs["btb"].get(
        halt_pc) == halt_pc and not proc.regs["e2w"])
    return proc, system, steps


def architectural_state(system):
    proc, mem = system.modules
    return list(proc.regs["rf"]), list(mem.regs["ram"])


SEEDS = st.fixed_dictionaries({r: st.integers(0, 2**32 - 1) for r in REGS})


@settings(max_examples=60, deadline=None)
@given(straightline_programs(), SEEDS)
def test_p4mm_agrees_with_isa_on_random_programs(instrs, seed_regs):
    isa = run_isa(instrs, seed_regs)
    proc, system, steps = run_p4mm(instrs, seed_regs)
    halt_pc = (len(instrs) - 1) * 4
    assert steps < P4MM_BUDGET, "pipeline did not reach halt (hang?)"
    assert proc.regs["pc"] == halt_pc, "pipeline did not reach halt (hang?)"
    for reg in range(32):
        assert proc.regs["rf"][reg] == isa.get_register(reg), \
            "x%d diverged" % reg
    # Memory too.
    mem = system.modules[1]
    for off in range(0, 64, 4):
        kami_word = mem.regs["ram"][(MEM_BASE + off) >> 2]
        isa_word = isa.load(4, MEM_BASE + off)
        assert kami_word == isa_word, "mem[0x%x] diverged" % (MEM_BASE + off)
    # Halted for good: the spin changes no register and no memory.
    settled = architectural_state(system)
    system.run(1_000)
    assert architectural_state(system) == settled


def test_pipeline_liveness_on_branch_storm():
    """A pathological alternating-branch program: the pipeline must keep
    retiring instructions (no deadlock from squash/scoreboard interplay) --
    the liveness property Kami's spec does not cover (§5.5)."""
    instrs = []
    for i in range(50):
        instrs.append(I.branch("beq", 0, 0, 8))    # always taken, +8
        instrs.append(I.i_type("addi", 1, 1, 1))   # skipped
    instrs.append(SPIN)
    proc, system, steps = run_p4mm(instrs, {})
    assert steps < P4MM_BUDGET
    assert proc.regs["pc"] == (len(instrs) - 1) * 4
    assert proc.regs["rf"][1] == 0  # every addi was squashed/skipped


def test_timing_is_not_specified():
    """§7.1.2: 'the top-level specification does not specify the timing of
    inputs and outputs' -- two devices with different latencies yield the
    same (spec-satisfying) trace but different cycle counts. The spec
    passing both runs *is* the limitation the paper discloses."""
    from repro.platform.net import lightbulb_packet
    from repro.riscv.machine import RiscvMachine
    from repro.sw.program import compiled_lightbulb, make_platform
    from repro.sw.specs import good_hl_trace

    results = {}
    for latency in (0, 6):
        compiled = compiled_lightbulb(stack_top=1 << 16)
        plat = make_platform(rx_latency=latency)
        machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                            mmio_bus=plat.bus)
        machine.run(1_500_000, stop=lambda m: plat.lan.rx_enabled)
        plat.lan.inject_frame(lightbulb_packet(True))
        start = machine.instret
        machine.run(3_000_000, stop=lambda m: plat.gpio.bulb_on)
        results[latency] = (machine.instret - start, machine.trace)
    fast_cycles, fast_trace = results[0]
    slow_cycles, slow_trace = results[6]
    assert slow_cycles > fast_cycles * 1.2  # timing differs substantially
    spec = good_hl_trace()
    assert spec.prefix_of(fast_trace) and spec.prefix_of(slow_trace)
