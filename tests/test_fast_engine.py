"""Fast-path engine equivalence (tier-1).

The fast execution engine (`repro.riscv.fastpath`: decode cache + fused
basic blocks + flat RAM access) claims to be *bit-identical* to the
reference interpreter loop. This suite holds it to that claim:

* every checked-in ``fuzz-corpus/*.json`` reproducer runs on both
  engines with identical final machine state, MMIO trace and ``instret``;
* lockstep single-stepping agrees state-for-state on a branchy
  MMIO-touching program;
* self-modifying stores invalidate fused blocks and reproduce the
  reference's stale-instruction UB, message and all;
* ``until_pc`` / ``stop`` / ``max_steps`` boundaries agree;
* undefined behavior (misaligned access, invalid instruction, unowned
  fetch) raises the same exception text at the same point;
* the instrumented run loop counts opcodes identically;
* blocks shared through the process-wide table never mix up machines:
  different images at the same addresses, bytes changed by a poke or a
  store, a DMA loan over code, and different RAM sizes all leave every
  machine matching its own reference run;
* a run from an emptied table and from a warm one give the same state
  and the same history-independent counters.
"""

import glob
import json
import os

import pytest

from repro import obs
from repro.compiler.pipeline import compile_program
from repro.fuzz.astjson import program_from_json
from repro.fuzz.oracle import _MEM_SIZE, SyntheticDevice
from repro.riscv import fastpath
from repro.riscv.encode import encode_program
from repro.riscv.fastpath import machine_state_diff
from repro.riscv.insts import Instr
from repro.riscv.machine import RiscvMachine, RiscvUB
from repro.sw.program import compiled_lightbulb, make_platform

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "fuzz-corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

_MAX_STEPS = 200_000


def _run_pair(image, max_steps=_MAX_STEPS, until_pc=None, mem_size=_MEM_SIZE,
              bus=True, **kwargs):
    """Run ``image`` on a reference and a fast machine; return both plus
    each engine's outcome (steps taken or the RiscvUB it raised)."""
    machines, outcomes = [], []
    for fast in (False, True):
        machine = RiscvMachine.with_program(
            image, base=0, pc=0, mem_size=mem_size,
            mmio_bus=SyntheticDevice() if bus else None, fast=fast, **kwargs)
        try:
            outcome = machine.run(max_steps, until_pc=until_pc)
        except RiscvUB as exc:
            outcome = "RiscvUB: %s" % exc
        machines.append(machine)
        outcomes.append(outcome)
    (ref, fast_m), (ref_out, fast_out) = machines, outcomes
    assert fast_out == ref_out
    assert machine_state_diff(ref, fast_m) is None
    return ref, fast_m, ref_out


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_reproducer_identical_on_both_engines(path):
    """Every corpus program: same final state, MMIO trace, instret."""
    with open(path) as fh:
        doc = json.load(fh)
    program = program_from_json(doc["program"])
    compiled = compile_program(program, stack_top=_MEM_SIZE)
    ref, fast, _ = _run_pair(compiled.image, until_pc=compiled.halt_pc)
    assert fast.trace == ref.trace
    assert fast.instret == ref.instret


def _branchy_image():
    """A loop with taken/untaken branches, loads/stores and an MMIO
    read+write per iteration (device at 0x40000000, scratch at 0x200)."""
    insts = [
        Instr("addi", rd=1, rs1=0, imm=0),        # i = 0
        Instr("addi", rd=2, rs1=0, imm=24),       # limit
        Instr("lui", rd=5, imm=0x40000),          # device base
        # loop:
        Instr("andi", rd=3, rs1=1, imm=1),
        Instr("beq", rs1=3, rs2=0, imm=12),       # skip MMIO on even i
        Instr("lw", rd=4, rs1=5, imm=0),          # MMIO read
        Instr("sw", rs1=5, rs2=4, imm=4),         # MMIO write
        Instr("sw", rs1=0, rs2=1, imm=0x200),     # scratch[0] = i
        Instr("lw", rd=6, rs1=0, imm=0x200),
        Instr("add", rd=7, rs1=7, rs2=6),         # checksum
        Instr("addi", rd=1, rs1=1, imm=1),
        Instr("bne", rs1=1, rs2=2, imm=-32),      # back to loop
        Instr("jal", rd=0, imm=0),                # halt: spin in place
    ]
    return encode_program(insts)


def test_lockstep_branchy_mmio_program():
    """Single-step the reference; advance the fast machine one step at a
    time (max_steps=1 exercises block truncation by budget); states must
    agree after every instruction."""
    image = _branchy_image()
    dev_ref, dev_fast = SyntheticDevice(), SyntheticDevice()
    ref = RiscvMachine.with_program(image, mem_size=1 << 12,
                                    mmio_bus=dev_ref, fast=False)
    fast = RiscvMachine.with_program(image, mem_size=1 << 12,
                                     mmio_bus=dev_fast, fast=True)
    for step in range(150):
        ref.step()
        assert fast.run(1) == 1
        diff = machine_state_diff(ref, fast)
        assert diff is None, "diverged after step %d: %s" % (step + 1, diff)


def test_whole_run_branchy_mmio_program():
    ref, fast, steps = _run_pair(_branchy_image(), max_steps=140,
                                 mem_size=1 << 12)
    assert steps == 140
    assert ref.trace  # the workload actually exercised MMIO


def test_self_modifying_store_hits_stale_instruction_ub():
    """Overwrite an instruction the block cache already fused: both
    engines must raise the stale-instruction UB with the same message."""
    insts = [
        Instr("addi", rd=1, rs1=0, imm=19),       # an addi word in x1
        Instr("sw", rs1=0, rs2=1, imm=16),        # clobber insts[4]
        Instr("addi", rd=2, rs1=0, imm=2),
        Instr("addi", rd=3, rs1=0, imm=3),
        Instr("addi", rd=4, rs1=0, imm=4),        # at 16: now stale
    ]
    image = encode_program(insts)
    # Warm the fast block cache over the whole straight line first, so
    # the store invalidates a block that is actually cached.
    warm = RiscvMachine.with_program(image, mem_size=1 << 12, fast=True,
                                     track_xaddrs=False)
    warm.run(5)
    assert warm.instret == 5

    ref, fast, outcome = _run_pair(image, max_steps=10, mem_size=1 << 12,
                                   bus=False)
    assert outcome == ("RiscvUB: fetch from non-executable address 0x10 "
                       "(stale-instruction discipline)")
    assert ref.instret == 4  # the store and both addis retired first


def test_store_into_current_block_aborts_fusion():
    """A store over the *next* instruction in the currently executing
    block: the fast engine must not keep replaying the fused copy."""
    insts = [
        Instr("addi", rd=1, rs1=0, imm=19),
        Instr("addi", rd=2, rs1=0, imm=2),
        Instr("sw", rs1=0, rs2=1, imm=16),        # clobber insts[4] below
        Instr("addi", rd=3, rs1=0, imm=3),        # still executes
        Instr("addi", rd=4, rs1=0, imm=4),        # fetch here must fault
    ]
    ref, fast, outcome = _run_pair(encode_program(insts), max_steps=10,
                                   mem_size=1 << 12, bus=False)
    assert "stale-instruction discipline" in outcome


def test_until_pc_mid_block_boundary():
    image = _branchy_image()
    for until in (4, 8, 12, 28):
        ref, fast, steps = _run_pair(image, max_steps=500, until_pc=until,
                                     mem_size=1 << 12)
        assert ref.pc == until and fast.pc == until


def test_stop_predicate_equivalence():
    image = _branchy_image()
    results = []
    for fast in (False, True):
        machine = RiscvMachine.with_program(image, mem_size=1 << 12,
                                            mmio_bus=SyntheticDevice(),
                                            fast=fast)
        steps = machine.run(500, stop=lambda m: m.get_register(1) == 7)
        results.append((steps, machine))
    (ref_steps, ref), (fast_steps, fast) = results
    assert fast_steps == ref_steps
    assert machine_state_diff(ref, fast) is None


@pytest.mark.parametrize("insts,needle", [
    # Misaligned load address (2 % 4 != 0).
    ([Instr("addi", rd=1, rs1=0, imm=2), Instr("lw", rd=2, rs1=1, imm=0)],
     "misaligned load at 0x2"),
    # Misaligned store.
    ([Instr("addi", rd=1, rs1=0, imm=6), Instr("sh", rs1=1, rs2=0, imm=1)],
     "misaligned store at 0x7"),
    # Misaligned jump target.
    ([Instr("jalr", rd=1, rs1=0, imm=6)], "misaligned jump target 0x6"),
    # Load far outside owned memory and MMIO.
    ([Instr("lui", rd=1, imm=0x80000), Instr("lw", rd=2, rs1=1, imm=0)],
     "load from unowned non-MMIO address 0x80000000"),
])
def test_ub_messages_identical(insts, needle):
    ref, fast, outcome = _run_pair(encode_program(insts), max_steps=10,
                                   mem_size=1 << 12, bus=False)
    assert isinstance(outcome, str) and needle in outcome


def test_invalid_instruction_identical():
    image = encode_program([Instr("addi", rd=1, rs1=0, imm=1)])
    image += b"\xff\xff\xff\xff"
    ref, fast, outcome = _run_pair(image, max_steps=10, mem_size=1 << 12,
                                   bus=False)
    assert outcome == ("RiscvUB: invalid instruction at pc=0x4: "
                       "invalid instruction word 0xffffffff")


@pytest.mark.parametrize("pc", [1, 2, 3])
def test_misaligned_initial_pc(pc):
    """Only an initial pc can be misaligned: the reference executes the
    straight-line instruction there (its store lands), then faults on the
    sequential pc."""
    image = bytes(pc) + encode_program([Instr("sw", rs1=0, rs2=0, imm=0x200),
                                        Instr("addi", rd=1, rs1=0, imm=1),
                                        Instr("jal", rd=0, imm=0)])
    outcomes = []
    for fast in (False, True):
        machine = RiscvMachine.with_program(image, pc=pc, mem_size=1 << 12,
                                            fast=fast)
        try:
            outcomes.append(machine.run(10))
        except RiscvUB as exc:
            outcomes.append("RiscvUB: %s" % exc)
        outcomes.append(machine)
    ref_out, ref, fast_out, fast = outcomes
    assert fast_out == ref_out == ("RiscvUB: misaligned jump target %#x"
                                   % (pc + 4))
    assert machine_state_diff(ref, fast) is None and 0x200 in ref.nonexec


def test_writes_to_x0_are_discarded():
    insts = [
        Instr("addi", rd=0, rs1=0, imm=123),
        Instr("lui", rd=0, imm=1),
        Instr("jal", rd=0, imm=8),                # also links to x0
        Instr("addi", rd=1, rs1=0, imm=99),       # skipped
        Instr("add", rd=2, rs1=0, rs2=0),
    ]
    ref, fast, _ = _run_pair(encode_program(insts), max_steps=4,
                             mem_size=1 << 12, bus=False)
    assert fast.get_register(0) == 0
    assert fast.get_register(1) == 0


def test_instrumented_opcode_counts_match_reference():
    """The fast engine's per-word counting must report exactly what the
    reference's per-step dict counting reports."""
    image = _branchy_image()

    def opcounts(fast):
        obs.reset()
        obs.enable(trace=True)
        try:
            machine = RiscvMachine.with_program(image, mem_size=1 << 12,
                                                mmio_bus=SyntheticDevice(),
                                                fast=fast)
            assert machine.run(100) == 100
            return obs.REGISTRY.snapshot("riscv.op.")
        finally:
            obs.disable()
            obs.reset()
    assert opcounts(True) == opcounts(False)


def test_decode_cache_shared_across_machines():
    """Same image on two fast machines: the second adopts the first's
    blocks from the process-wide table instead of building its own, and
    stays bit-identical."""
    image = _branchy_image()
    a = RiscvMachine.with_program(image, mem_size=1 << 12,
                                  mmio_bus=SyntheticDevice(), fast=True)
    b = RiscvMachine.with_program(image, mem_size=1 << 12,
                                  mmio_bus=SyntheticDevice(), fast=True)
    a.run(120)
    hits = fastpath._TABLE_HITS.value
    b.run(120)
    assert machine_state_diff(a, b) is None
    a_blocks = a._fast_engine.blocks
    b_blocks = b._fast_engine.blocks
    assert b_blocks.keys() == a_blocks.keys()
    assert all(b_blocks[s] is a_blocks[s] for s in b_blocks)
    assert fastpath._TABLE_HITS.value - hits == len(b_blocks)


def test_external_memory_poke_between_runs_is_observed():
    """Writing machine memory directly (test-style poke) must be seen by
    the next fast run: the poked word replaces a cached block's code."""
    insts = [
        Instr("addi", rd=1, rs1=0, imm=1),
        Instr("jal", rd=0, imm=-4),               # tight loop to pc=0
    ]
    image = encode_program(insts)
    nop = encode_program([Instr("addi", rd=0, rs1=0, imm=0)])
    results = []
    for fast in (False, True):
        machine = RiscvMachine.with_program(image, mem_size=1 << 12,
                                            fast=fast, track_xaddrs=False)
        machine.run(10)
        # Redirect the loop: turn the jal into a nop, fall into zeros.
        for i, byte in enumerate(nop):
            machine.mem[4 + i] = byte
        try:
            outcome = machine.run(10)
        except RiscvUB as exc:
            outcome = "RiscvUB: %s" % exc
        results.append((outcome, machine))
    (ref_out, ref), (fast_out, fast) = results
    assert fast_out == ref_out
    assert machine_state_diff(ref, fast) is None


#: Each way of writing x2, then a spin.
_SP_WRITES = {
    "addi": [Instr("addi", rd=2, rs1=0, imm=0x123)],
    "add": [Instr("addi", rd=3, rs1=0, imm=0x55),
            Instr("add", rd=2, rs1=3, rs2=3)],
    "lw": [Instr("addi", rd=3, rs1=0, imm=0x77),
           Instr("sw", rs1=0, rs2=3, imm=0x200),
           Instr("lw", rd=2, rs1=0, imm=0x200)],
    "lui": [Instr("lui", rd=2, imm=0x12)],
    "auipc": [Instr("addi", rd=0, rs1=0, imm=0),
              Instr("auipc", rd=2, imm=0x1)],
    "jal": [Instr("jal", rd=2, imm=8), Instr("addi", rd=7, rs1=0, imm=1)],
    # Target 12, link 8: the link must not be read as the target.
    "jalr": [Instr("addi", rd=5, rs1=0, imm=12),
             Instr("jalr", rd=2, rs1=5, imm=0),
             Instr("addi", rd=7, rs1=0, imm=1)],
    # jalr reads x2 (target 16) before it links 8 into x2.
    "jalr-rs1-is-rd": [Instr("addi", rd=2, rs1=0, imm=16),
                       Instr("jalr", rd=2, rs1=2, imm=0),
                       Instr("addi", rd=7, rs1=0, imm=1),
                       Instr("jal", rd=0, imm=0)],
}


@pytest.mark.parametrize("kind", list(_SP_WRITES))
def test_every_kind_of_write_to_sp_moves_the_watermark(kind):
    """`sp_min` is part of the compared state: each way of writing x2
    must lower it on the fast engine exactly as `set_register` does."""
    image = encode_program(_SP_WRITES[kind] + [Instr("jal", rd=0, imm=0)])
    ref, fast, _ = _run_pair(image, max_steps=12, mem_size=1 << 12,
                             bus=False)
    assert ref.sp_min != 0xFFFFFFFF  # and equal: `_run_pair` compares it


class _LendingDevice:
    """An MMIO device whose read or write lends the machine's word at
    ``lend`` away, as a DMA engine taking ownership does."""

    def __init__(self, lend, on):
        self.lend, self.on, self.machine = lend, on, None

    def is_mmio(self, addr):
        return 0x40000000 <= addr < 0x40001000

    def read(self, addr):
        if self.on == "read":
            self.machine.loan_out(self.lend, 4)
        return 0

    def write(self, addr, value):
        if self.on == "write":
            self.machine.loan_out(self.lend, 4)


@pytest.mark.parametrize("on", ["read", "write"])
def test_device_lending_code_mid_block(on):
    """An MMIO access whose device takes the next instruction of the
    running block: the fast engine must stop the block there, and fault
    at the reference's fetch."""
    access = (Instr("lw", rd=4, rs1=5, imm=0) if on == "read"
              else Instr("sw", rs1=5, rs2=0, imm=0))
    image = encode_program([Instr("lui", rd=5, imm=0x40000), access,
                            Instr("addi", rd=6, rs1=0, imm=1),
                            Instr("jal", rd=0, imm=0)])
    outcomes = []
    for fast in (False, True):
        device = _LendingDevice(8, on)
        machine = device.machine = RiscvMachine.with_program(
            image, mem_size=1 << 12, mmio_bus=device, fast=fast)
        try:
            outcomes.append(machine.run(10))
        except RiscvUB as exc:
            outcomes.append("RiscvUB: %s" % exc)
        outcomes.append(machine)
    ref_out, ref, fast_out, fast = outcomes
    assert fast_out == ref_out == "RiscvUB: fetch from unowned address 0x8"
    assert machine_state_diff(ref, fast) is None


# -- blocks shared through the process-wide table -----------------------------


def _li(rd, value):
    """``lui`` + ``addi`` loading the 32-bit ``value`` into ``rd``."""
    hi = ((value + 0x800) >> 12) & 0xFFFFF
    lo = value - ((hi << 12) & 0xFFFFFFFF)
    if lo >= 0x800:
        lo -= 1 << 32
    return [Instr("lui", rd=rd, imm=hi), Instr("addi", rd=rd, rs1=rd, imm=lo)]


def _word(instr):
    return int.from_bytes(encode_program([instr]), "little")


def _fast_and_reference(runs, total, quantum=7, bus=False, **kwargs):
    """One fast machine per ``(image, setup)`` in ``runs``, all run
    round-robin ``quantum`` steps at a time in this process, so each may
    adopt the blocks another built. Each must match a reference machine
    given the same image and set-up, in full state and outcome (the steps
    taken, or the text of the RiscvUB that stopped it)."""
    def machine(fast, image, setup):
        m = RiscvMachine.with_program(
            image, fast=fast, mmio_bus=SyntheticDevice() if bus else None,
            **kwargs)
        if setup is not None:
            setup(m)
        return m

    fast = [machine(True, image, setup) for image, setup in runs]
    outcomes = [0] * len(fast)
    rounds = range(0, total, quantum)
    for _ in rounds:
        for k, m in enumerate(fast):
            if isinstance(outcomes[k], str):
                continue
            try:
                outcomes[k] += m.run(quantum)
            except RiscvUB as exc:
                outcomes[k] = "RiscvUB: %s" % exc
    for m, outcome, (image, setup) in zip(fast, outcomes, runs):
        ref = machine(False, image, setup)
        try:
            ref_outcome = ref.run(len(rounds) * quantum)
        except RiscvUB as exc:
            ref_outcome = "RiscvUB: %s" % exc
        assert outcome == ref_outcome
        assert machine_state_diff(ref, m) is None
    return fast, outcomes


def test_different_images_at_same_addresses_interleaved():
    """Two images whose words differ at the same addresses (and agree
    elsewhere), run interleaved: no machine runs the other image's block,
    and a second machine of each image adopts its first's blocks."""
    def image(limit, scale):
        return encode_program([
            Instr("addi", rd=1, rs1=0, imm=0),
            Instr("addi", rd=2, rs1=0, imm=limit),
            Instr("addi", rd=3, rs1=0, imm=scale),
            # loop:
            Instr("mul", rd=4, rs1=1, rs2=3),
            Instr("add", rd=7, rs1=7, rs2=4),
            Instr("sw", rs1=0, rs2=7, imm=0x200),
            Instr("addi", rd=1, rs1=1, imm=1),
            Instr("bne", rs1=1, rs2=2, imm=-16),
            Instr("lw", rd=6, rs1=0, imm=0x200),
            Instr("jal", rd=0, imm=0),
        ])

    first, second = image(20, 3), image(30, 5)
    assert first[12:] == second[12:] and first[:12] != second[:12]
    for one, other in ((first, second), (second, first)):
        hits = fastpath._TABLE_HITS.value
        machines, _ = _fast_and_reference(
            [(one, None), (other, None), (one, None), (other, None)], 200,
            quantum=5, mem_size=1 << 12)
        assert machines[0].regs[7] != machines[1].regs[7]
        assert fastpath._TABLE_HITS.value > hits


def _patch_image(patch):
    """Code that stores the word of ``addi x5, x0, 7`` over the block at
    0x40, or ``patch`` (a nop when None) in its place, before jumping
    there; the block at 0x40 is the same in every variant."""
    insts = _li(3, _word(Instr("addi", rd=5, rs1=0, imm=7)))
    insts += [patch or Instr("addi", rd=0, rs1=0, imm=0),
              Instr("jal", rd=0, imm=0x40 - 4 * len(insts) - 4)]
    image = bytearray(encode_program(insts))
    image += bytes(0x40 - len(image))
    image += encode_program([Instr("addi", rd=5, rs1=0, imm=5),
                             Instr("addi", rd=6, rs1=5, imm=1),
                             Instr("jal", rd=0, imm=0)])
    return bytes(image)


@pytest.mark.parametrize("track_xaddrs", [True, False])
def test_bytes_changed_before_first_reaching_a_shared_block(track_xaddrs):
    """A block at 0x40 is in the table; machines whose bytes there were
    changed before they first reach it -- by a poke, by their own store of
    a new word, or by their own store of the *same* word -- must not run
    the shared copy."""
    plain = _patch_image(None)
    warm = RiscvMachine.with_program(plain, mem_size=1 << 12, fast=True)
    warm.run(20)
    assert 0x40 in fastpath._TABLE

    new_word = _word(Instr("addi", rd=5, rs1=0, imm=7))

    def poke(m):
        for i, byte in enumerate(new_word.to_bytes(4, "little")):
            m.mem[0x40 + i] = byte

    machines, outcomes = _fast_and_reference(
        [(plain, None), (plain, poke)], 30, mem_size=1 << 12,
        track_xaddrs=track_xaddrs)
    assert outcomes == [35, 35]
    assert [m.regs[5] for m in machines] == [5, 7]

    store_new = _patch_image(Instr("sw", rs1=0, rs2=3, imm=0x40))
    same_word = _word(Instr("addi", rd=5, rs1=0, imm=5))
    store_same = bytearray(store_new)
    store_same[:8] = encode_program(_li(3, same_word))
    for image, x5 in ((store_new, 7), (bytes(store_same), 5)):
        machines, outcomes = _fast_and_reference(
            [(image, None)], 30, mem_size=1 << 12, track_xaddrs=track_xaddrs)
        if track_xaddrs:
            assert outcomes == ["RiscvUB: fetch from non-executable address "
                                "0x40 (stale-instruction discipline)"]
        else:
            assert outcomes == [35] and machines[0].regs[5] == x5


def test_dma_loan_over_shared_code():
    """One machine holds a DMA loan over a shared block while others run
    the same image: the loan holder faults at the reference's fetch, and
    the rest adopt and run the shared block."""
    image = _patch_image(None)
    warm = RiscvMachine.with_program(image, mem_size=1 << 12, fast=True)
    warm.run(20)

    def loan(m):
        m.loan_out(0x44, 4)

    _, outcomes = _fast_and_reference(
        [(image, None), (image, loan), (image, None)], 30, mem_size=1 << 12)
    assert outcomes[0] == outcomes[2] == 35
    assert outcomes[1] == "RiscvUB: fetch from unowned address 0x44"


@pytest.mark.parametrize("access", ["lw", "sw"])
def test_one_image_at_two_ram_sizes(access):
    """The same blocks on the fuzz oracle's RAM and on a 4 KiB RAM: each
    machine's own RAM bound decides which accesses are flat RAM, which
    are MMIO, and which fault."""
    beyond = (Instr("lw", rd=6, rs1=3, imm=0) if access == "lw"
              else Instr("sw", rs1=3, rs2=1, imm=0))
    insts = [Instr("lui", rd=3, imm=0x2),           # x3 = 0x2000
             Instr("lui", rd=5, imm=0x40000),       # device base
             Instr("addi", rd=1, rs1=0, imm=9),
             Instr("lw", rd=4, rs1=5, imm=0),       # MMIO read
             Instr("sw", rs1=0, rs2=1, imm=0x100),
             beyond,                                # beyond 4 KiB
             Instr("lw", rd=6, rs1=0, imm=0x100),
             Instr("jal", rd=0, imm=0)]
    image = encode_program(insts)
    outcomes = []
    for mem_size in (_MEM_SIZE, 1 << 12, _MEM_SIZE):
        # Each size is first a cold machine, then one adopting the other
        # size's blocks.
        outcomes.append(_fast_and_reference(
            [(image, None)] * 2, 20, quantum=3, mem_size=mem_size,
            bus=True)[1])
    assert outcomes[0] == outcomes[2] == [21, 21]
    verb = "load from" if access == "lw" else "store to"
    assert outcomes[1] == ["RiscvUB: %s unowned non-MMIO address 0x2000"
                           % verb] * 2


def test_counters_do_not_depend_on_the_table():
    """The same program from an emptied table and from a warm one: the
    same final state, and the same instructions, blocks and block runs.
    Only the table's own counters differ."""
    image = compiled_lightbulb(stack_top=1 << 16).image
    names = ("riscv.instructions", "riscv.fast.blocks_built",
             "riscv.fast.block_runs", "riscv.fast.table_hits",
             "riscv.fast.table_misses")

    def run():
        before = obs.REGISTRY.snapshot("riscv.")
        m = RiscvMachine.with_program(image, mem_size=1 << 16, fast=True,
                                      mmio_bus=make_platform().bus)
        m.run(30_000)
        after = obs.REGISTRY.snapshot("riscv.")
        return m, {n: after.get(n, 0) - before.get(n, 0) for n in names}

    fastpath.clear_shared()
    cold, cold_counts = run()
    warm, warm_counts = run()
    assert machine_state_diff(cold, warm) is None
    built = cold_counts["riscv.fast.blocks_built"]
    assert cold_counts["riscv.fast.table_hits"] == 0
    assert cold_counts["riscv.fast.table_misses"] == built
    assert warm_counts["riscv.fast.table_hits"] == built
    for counts in (cold_counts, warm_counts):
        del counts["riscv.fast.table_hits"], counts["riscv.fast.table_misses"]
    assert cold_counts == warm_counts


@pytest.mark.parametrize("cut", ["invalid word", "end of RAM"])
def test_truncated_blocks_stay_with_their_machine(cut):
    """A block cut short by a word that does not fetch or decode is not
    shared: a machine whose next word there is valid builds the whole
    block, as it would alone."""
    head = [Instr("addi", rd=1, rs1=0, imm=1),
            Instr("addi", rd=4, rs1=0, imm=2)]
    if cut == "invalid word":
        short = RiscvMachine.with_program(
            encode_program(head) + b"\xff\xff\xff\xff", mem_size=1 << 12,
            fast=True)
    else:
        short = RiscvMachine.with_program(encode_program(head), mem_size=8,
                                          fast=True)
    with pytest.raises(RiscvUB):
        short.run(10)
    assert short._fast_engine.blocks[0].n == 2
    whole = RiscvMachine.with_program(
        encode_program(head + [Instr("addi", rd=3, rs1=0, imm=3),
                               Instr("jal", rd=0, imm=0)]),
        mem_size=1 << 12, fast=True)
    whole.run(10)
    assert whole._fast_engine.blocks[0].n == 4
