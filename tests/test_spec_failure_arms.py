"""Coverage of the specification's failure arms.

The paper's drivers are total: on an unresponsive device they time out and
return an error, and the specification must cover those traces too (the
DeviceFail/boot-failure arms of `good_hl_trace`). These tests run the
system against dead and flaky devices and check (a) the software really
does give up -- total correctness observed -- and (b) the resulting traces
are still inside the spec."""


from repro.bedrock2.builder import call, var
from repro.bedrock2.semantics import Interpreter, Memory, State, to_mmio_triples
from repro.platform.net import lightbulb_packet
from repro.sw import constants as C
from repro.sw.program import lightbulb_program, make_platform
from repro.sw.specs import good_hl_trace

PROG = lightbulb_program()
SPEC = good_hl_trace()


def run_service(plat, loops=2):
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=80_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    init_err = state.locals["e"]
    for _ in range(loops):
        interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)
    return init_err, state.locals["e"], to_mmio_triples(state.trace)


def test_dead_spi_device():
    """RXDATA never ready: every spi_read times out after SPI_PATIENCE
    polls; init fails; the loop keeps failing -- all within the spec."""
    plat = make_platform()
    plat.spi.rx_latency = 10**9
    init_err, loop_err, trace = run_service(plat)
    assert init_err != 0 and loop_err != 0
    assert SPEC.matches(trace), "dead-device trace left the spec"
    assert SPEC.prefix_of(trace[: len(trace) // 2])


def test_lan_never_finishes_power_up():
    """BYTE_TEST never returns the magic: wait_for_boot exhausts its
    patience (BootSeq's failure arm)."""
    plat = make_platform(power_up_reads=10**9)
    init_err, loop_err, trace = run_service(plat)
    assert init_err == C.ERR_TIMEOUT
    assert SPEC.matches(trace)


def test_lan_boots_but_never_ready():
    """BYTE_TEST answers but HW_CFG.READY never rises: the second wait
    loop's failure arm."""
    plat = make_platform(power_up_reads=0)
    original = plat.lan.reg_read

    def no_ready(addr):
        from repro.platform.lan9250 import HW_CFG, HW_CFG_READY

        value = original(addr)
        if addr == HW_CFG:
            value &= ~HW_CFG_READY
        return value

    plat.lan.reg_read = no_ready
    init_err, loop_err, trace = run_service(plat)
    assert init_err == C.ERR_TIMEOUT
    assert SPEC.matches(trace)


def test_device_dies_mid_operation():
    """The device answers during boot, then goes silent: a DeviceFail
    iteration after a healthy BootSeq."""
    plat = make_platform()
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=80_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    assert state.locals["e"] == 0
    plat.spi.rx_latency = 10**9  # device dies now
    interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)
    assert state.locals["e"] != 0
    trace = to_mmio_triples(state.trace)
    assert SPEC.matches(trace)


def test_recovery_after_transient_failure():
    """The device comes back: failed iterations followed by a successful
    command -- the spec's star accommodates interleaved arms."""
    plat = make_platform()
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=80_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    plat.spi.rx_latency = 10**9
    interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)
    assert state.locals["e"] != 0
    plat.spi.rx_latency = 1  # back to life
    plat.spi.rx_fifo.clear()  # transaction boundary re-sync
    plat.lan.chip_deselect()
    plat.lan.inject_frame(lightbulb_packet(True))
    for _ in range(3):
        interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)
    assert plat.gpio.bulb_on
    trace = to_mmio_triples(state.trace)
    assert SPEC.matches(trace)


def test_boot_failure_on_machine_level():
    """The compiled system against a dead device: totality at machine
    level -- the processor returns to polling instead of wedging, and the
    trace stays in spec."""
    from repro.riscv.machine import RiscvMachine
    from repro.sw.program import compiled_lightbulb

    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform(power_up_reads=10**9)
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                        mmio_bus=plat.bus)
    machine.run(400_000)
    assert SPEC.prefix_of(machine.trace)
    # The event loop must still be alive (making progress, not wedged).
    before = machine.instret
    machine.run(50_000)
    assert machine.instret == before + 50_000


def test_device_dies_mid_drain_on_machine_level():
    """The device goes silent while the driver drains a frame, 6 of its 11
    data words read: the DeviceFail arm that fails inside the drain."""
    from repro.riscv.machine import RiscvMachine
    from repro.sw.program import compiled_lightbulb

    compiled = compiled_lightbulb(stack_top=1 << 16)
    plat = make_platform()
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                        mmio_bus=plat.bus, fast=True)
    while not plat.lan.rx_enabled:
        machine.run(10)
    assert plat.lan.inject_frame(lightbulb_packet(True))
    while not plat.lan._active_words:  # filled when the status is read
        machine.run(10)
    while len(plat.lan._active_words) > 5:
        machine.run(10)
    plat.spi.rx_latency = 10**9  # device dies now
    machine.run(60_000)
    assert len(machine.trace) == 4361
    assert SPEC.prefix_of(machine.trace)
    assert not plat.gpio.bulb_on
