"""The DMA extension (paper section 6.2): memory-ownership transfer
recorded through the I/O interface. Tests the ownership discipline at the
ISA level, a Bedrock2 driver for the engine, and the trace specification
of the transfer protocol."""

import os
import subprocess
import sys

import pytest

from repro.bedrock2.builder import (
    block, call, func, interact, lit, load1, set_, var, while_, if_,
)
from repro.compiler import compile_program
from repro.platform.bus import MMIOBus
from repro.platform.dma import (
    DMA_ADDR, DMA_BASE, DMA_CTRL, DMA_LEN, DMA_STATUS, DMA_VALUE,
    DmaEngine, dma_transfer_spec,
)
from repro.riscv import insts as I
from repro.riscv.encode import encode_program
from repro.riscv.machine import RiscvMachine, RiscvUB


def make_dma_machine(image, transfer_polls=3, mem_size=1 << 16):
    engine = DmaEngine(transfer_polls=transfer_polls)
    bus = MMIOBus([engine])
    machine = RiscvMachine.with_program(image, mem_size=mem_size,
                                        mmio_bus=bus)
    engine.attach_machine(machine)
    return machine, engine, bus


# -- ownership at the ISA level -----------------------------------------------------

def test_loan_makes_cpu_access_ub():
    machine, engine, _ = make_dma_machine(b"\x00" * 8)
    machine.loan_out(0x1000, 64)
    with pytest.raises(RiscvUB):
        machine.load(4, 0x1000)
    with pytest.raises(RiscvUB):
        machine.store(4, 0x1020, 1)
    # Adjacent memory is still fine.
    machine.store(4, 0x1040, 5)
    assert machine.load(4, 0x1040) == 5


def test_loan_return_restores_access_with_device_data():
    machine, _, _ = make_dma_machine(b"\x00" * 8)
    machine.loan_out(0x1000, 8)
    machine.loan_return(0x1000, b"\xab" * 8)
    assert machine.load(4, 0x1000) == 0xABABABAB


def test_loan_return_marks_region_nonexecutable():
    # Device-written bytes are data, not code: XAddrs must exclude them
    # (the stale-instruction discipline extends to DMA naturally).
    machine, _, _ = make_dma_machine(b"\x00" * 8)
    machine.loan_out(0x100, 4)
    machine.loan_return(0x100, encode_program([I.i_type("addi", 1, 0, 1)]))
    machine.pc = 0x100
    with pytest.raises(RiscvUB, match="non-executable"):
        machine.step()


def test_unknown_loan_return_rejected():
    machine, _, _ = make_dma_machine(b"\x00" * 8)
    with pytest.raises(ValueError):
        machine.loan_return(0x5000)


# -- the engine over MMIO ---------------------------------------------------------------

DMA_PROGRAM = {
    # dma_fill(addr, len, val) -> err: program the engine, start, poll.
    "dma_fill": func("dma_fill", ("addr", "n", "val"), ("err",), block(
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_ADDR), var("addr")),
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_LEN), var("n")),
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_VALUE), var("val")),
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_CTRL), lit(1)),
        set_("err", lit(1)),
        set_("i", lit(64)),
        while_(var("i"), block(
            interact(["s"], "MMIOREAD", lit(DMA_BASE + DMA_STATUS)),
            if_(var("s"),
                set_("i", var("i") - 1),
                block(set_("i", lit(0)), set_("err", lit(0)))),
        )),
    )),
    "main": func("main", ("dst", "n"), ("r",), block(
        call(("e",), "dma_fill", var("dst"), var("n"), lit(0x5A)),
        # After completion the CPU owns the region again and reads the
        # device-written data.
        set_("r", load1(var("dst")) + load1(var("dst") + var("n") - 1)
             + (var("e") << 16)),
    )),
}


def test_importing_the_dma_model_leaves_the_platform_map_alone():
    # A fresh interpreter, since this module has imported the model. The
    # engine's range is decoded only by a bus that holds the engine.
    probe = (
        "from repro.platform.bus import MMIOBus\n"
        "from repro.sw.verify import platform_mmio_spec\n"
        "def probe():\n"
        "    return MMIOBus().is_mmio(0x%x), platform_mmio_spec().ranges\n"
        "before = probe()\n"
        "import repro.platform.dma\n"
        "print(before == probe(), before[0], len(before[1]))\n" % DMA_BASE)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "False", "2"]


def test_dma_fill_end_to_end_on_machine():
    compiled = compile_program(DMA_PROGRAM, entry="main", stack_top=0x8000)
    engine = DmaEngine(transfer_polls=3)
    bus = MMIOBus([engine])
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 15,
                                        mmio_bus=bus)
    engine.attach_machine(machine)
    machine.set_register(10, 0x4000)  # dst
    machine.set_register(11, 64)      # n
    machine.run(100_000, until_pc=compiled.halt_pc)
    assert machine.get_register(10) == 0x5A + 0x5A
    assert engine.transfers_completed == 1
    assert machine.trace.count(("st", DMA_BASE + DMA_CTRL, 1)) == 1


def test_cpu_touch_during_dma_is_ub():
    prog = dict(DMA_PROGRAM)
    prog["main"] = func("main", ("dst", "n"), ("r",), block(
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_ADDR), var("dst")),
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_LEN), var("n")),
        interact([], "MMIOWRITE", lit(DMA_BASE + DMA_CTRL), lit(1)),
        set_("r", load1(var("dst"))),  # race: region is on loan!
    ))
    compiled = compile_program(prog, entry="main", stack_top=0x8000)
    engine = DmaEngine(transfer_polls=3)
    bus = MMIOBus([engine])
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 15,
                                        mmio_bus=bus)
    engine.attach_machine(machine)
    machine.set_register(10, 0x4000)
    machine.set_register(11, 64)
    with pytest.raises(RiscvUB):
        machine.run(100_000, until_pc=compiled.halt_pc)


def test_dma_trace_matches_protocol_spec():
    compiled = compile_program(DMA_PROGRAM, entry="main", stack_top=0x8000)
    engine = DmaEngine(transfer_polls=2)
    bus = MMIOBus([engine])
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 15,
                                        mmio_bus=bus)
    engine.attach_machine(machine)
    machine.set_register(10, 0x4000)
    machine.set_register(11, 32)
    machine.run(100_000, until_pc=compiled.halt_pc)
    spec = dma_transfer_spec(0x4000, 32, 0x5A)
    assert spec.matches(machine.trace)
    # And prefix-closedness mid-transfer.
    assert spec.prefix_of(machine.trace[:5])


def test_dma_spec_rejects_out_of_protocol_traces():
    spec = dma_transfer_spec(0x4000, 32, 0x5A)
    # Reading STATUS idle before CTRL was kicked:
    bogus = [("ld", DMA_BASE + DMA_STATUS, 0)]
    assert not spec.matches(bogus)
    assert not spec.prefix_of(bogus)
