"""The door-lock application: the stack reused for a second app, with its
own spec. The security property is authentication: only frames carrying
the secret PIN move the lock."""


from repro.bedrock2.builder import call, var
from repro.bedrock2.semantics import Interpreter, Memory, State, to_mmio_triples
from repro.platform.net import (
    lightbulb_packet, oversize_packet, truncated_packet,
)
from repro.riscv.machine import RiscvMachine
from repro.compiler import compile_program
from repro.sw import constants as C
from repro.sw.doorlock import LOCK_PIN, doorlock_program, lock_packet
from repro.sw.doorlock_spec import good_lock_trace
from repro.sw.program import make_platform

PIN = 0xC0DE1234
PROG = doorlock_program(PIN)
SPEC = good_lock_trace(PIN)


def lock_state(plat):
    return bool((plat.gpio.output_val >> LOCK_PIN) & 1)


def run_session(frames, loops=None):
    plat = make_platform()
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=30_000_000)
    interp.exec_cmd(call(("e",), "doorlock_init"), state)
    for frame in frames:
        plat.lan.inject_frame(frame)
    for _ in range(loops if loops is not None else len(frames) + 2):
        interp.exec_cmd(call(("e",), "doorlock_loop", var("buf")), state)
    return plat, to_mmio_triples(state.trace)


def test_correct_pin_unlocks_and_locks():
    plat, trace = run_session([lock_packet(PIN, True)])
    assert lock_state(plat)
    plat, trace = run_session([lock_packet(PIN, True),
                               lock_packet(PIN, False)])
    assert not lock_state(plat)


def test_wrong_pin_ignored():
    for wrong in (0, PIN ^ 1, PIN ^ 0x80000000, 0xFFFFFFFF):
        plat, _ = run_session([lock_packet(wrong, True)])
        assert not lock_state(plat), "wrong PIN %#x moved the lock!" % wrong


def test_near_miss_pins_ignored():
    # Flip each byte of the correct PIN individually.
    for shift in (0, 8, 16, 24):
        wrong = PIN ^ (0xFF << shift)
        plat, _ = run_session([lock_packet(wrong, True)])
        assert not lock_state(plat)


def test_lightbulb_packets_do_not_unlock():
    # A valid *lightbulb* command is an unauthorized frame for the lock.
    plat, trace = run_session([lightbulb_packet(True)])
    assert not lock_state(plat)
    assert SPEC.matches(trace)


def test_malformed_traffic_ignored_and_in_spec():
    plat, trace = run_session([truncated_packet(), oversize_packet(2000),
                               lock_packet(PIN ^ 5, True)])
    assert not lock_state(plat)
    assert SPEC.matches(trace)


def test_authorized_traces_in_spec():
    _, trace = run_session([lock_packet(PIN, True), lock_packet(PIN, False)])
    assert SPEC.matches(trace)
    for cut in range(0, len(trace), 211):
        assert SPEC.prefix_of(trace[:cut])


def test_spec_rejects_unlock_without_authorized_frame():
    _, trace = run_session([lock_packet(PIN ^ 1, True)])
    assert SPEC.matches(trace)
    tampered = list(trace)
    # Claim the unauthorized run ALSO unlocked: must be out of spec.
    tampered.append(("st", C.GPIO_OUTPUT_VAL_ADDR, 1 << LOCK_PIN))
    assert not SPEC.matches(tampered)
    assert not SPEC.prefix_of(tampered)


def test_doorlock_program_logic_verification():
    """Modular reuse: only the two new app functions need verifying; the
    driver specs are shared with the lightbulb."""
    from repro.sw.verify import verify_doorlock

    run = verify_doorlock()
    assert {r.function for r in run.reports} == {"doorlock_init",
                                                 "doorlock_loop"}
    assert run.total_obligations >= 4


def test_compiled_doorlock_end_to_end():
    compiled = compile_program(PROG, entry="main", stack_top=1 << 16)
    plat = make_platform()
    machine = RiscvMachine.with_program(compiled.image, mem_size=1 << 16,
                                        mmio_bus=plat.bus)
    machine.run(400_000, stop=lambda m: plat.lan.rx_enabled)
    plat.lan.inject_frame(lock_packet(PIN, True))
    machine.run(600_000, stop=lambda m: lock_state(plat))
    assert lock_state(plat)
    plat.lan.inject_frame(lock_packet(0xBAD0BAD0, False))  # attack: ignored
    machine.run(600_000, stop=lambda m: not plat.lan.frames)
    assert lock_state(plat)  # still unlocked: attacker couldn't relock
    plat.lan.inject_frame(lock_packet(PIN, False))
    machine.run(600_000, stop=lambda m: not lock_state(plat))
    assert not lock_state(plat)
    assert SPEC.prefix_of(machine.trace)
