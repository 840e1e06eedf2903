"""Tests for the lightbulb software stack: behavior at the source level,
the trace specification, and the program-logic verification (paper §3, §5.1)."""

import pytest

from repro.bedrock2.builder import block, call, lit, set_, var
from repro.bedrock2.semantics import (
    Interpreter, Memory, State, to_mmio_triples,
)
from repro.platform.net import (
    lightbulb_packet, non_udp_packet, oversize_packet, truncated_packet,
    wrong_ethertype_packet,
)
from repro.sw import constants as C
from repro.sw.program import lightbulb_program, make_platform
from repro.sw.specs import boot_seq, good_hl_trace, iteration
from repro.traces.online import OnlineChecker
from repro.traces.predicates import Star


PROG = lightbulb_program()


def run_session(frames, loops=None, platform=None):
    """Boot the stack, inject ``frames``, run one loop iteration per frame
    (plus two idle polls); returns (platform, mmio trace)."""
    plat = platform or make_platform()
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=20_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    for frame in frames:
        plat.lan.inject_frame(frame)
    for _ in range(loops if loops is not None else len(frames) + 2):
        interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)
    return plat, to_mmio_triples(state.trace)


# -- behavior ----------------------------------------------------------------------

def test_bulb_turns_on_and_off():
    plat, _ = run_session([lightbulb_packet(True)])
    assert plat.gpio.bulb_on
    plat2, _ = run_session([lightbulb_packet(True), lightbulb_packet(False)])
    assert not plat2.gpio.bulb_on
    assert plat2.gpio.bulb_history == [1, 0]


def test_malformed_packets_ignored():
    for frame in (truncated_packet(), wrong_ethertype_packet(),
                  non_udp_packet(), oversize_packet(2000)):
        plat, _ = run_session([frame])
        assert not plat.gpio.bulb_on
        assert plat.gpio.bulb_history == []


def test_command_byte_bit0_decides():
    on2 = lightbulb_packet(True)  # cmd byte 0x01
    frame = bytearray(lightbulb_packet(False))
    frame[42] = 0x02  # bit 0 clear: off
    plat, _ = run_session([on2, bytes(frame)])
    assert not plat.gpio.bulb_on
    frame[42] = 0x03  # bit 0 set: on
    plat, _ = run_session([bytes(frame)])
    assert plat.gpio.bulb_on


def test_app_never_transmits():
    plat, trace = run_session([lightbulb_packet(True), truncated_packet()])
    # No store ever writes the LAN's TX-related registers: the only writes
    # are SPI TXDATA (transport), CSMODE, and GPIO.
    allowed = {C.SPI_TXDATA_ADDR, C.SPI_CSMODE_ADDR,
               C.GPIO_OUTPUT_EN_ADDR, C.GPIO_OUTPUT_VAL_ADDR}
    for kind, addr, _ in trace:
        if kind == "st":
            assert addr in allowed


def test_device_timeout_returns_error_not_hang():
    # A dead SPI device (no slave): RXDATA stays empty forever; the driver
    # must give up after SPI_PATIENCE polls (total correctness).
    plat = make_platform()
    plat.spi.slave = None
    plat.spi.rx_latency = 10**9  # never ready
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=20_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    assert state.locals["e"] != 0  # init reports the failure


# -- the trace specification -------------------------------------------------------

SPEC = good_hl_trace()


def test_idle_trace_in_spec():
    _, trace = run_session([], loops=3)
    assert SPEC.matches(trace)


def test_command_traces_in_spec():
    _, trace = run_session([lightbulb_packet(True), lightbulb_packet(False)])
    assert SPEC.matches(trace)


def test_malformed_traces_in_spec():
    _, trace = run_session([truncated_packet(), oversize_packet(2000),
                            wrong_ethertype_packet(), non_udp_packet()])
    assert SPEC.matches(trace)


def test_prefixes_admitted_everywhere():
    _, trace = run_session([lightbulb_packet(True), truncated_packet()])
    # Sampled cuts plus a dense band around a transaction boundary.
    cuts = set(range(0, len(trace) + 1, 97)) | set(range(30, 70)) \
        | {len(trace) - 1, len(trace)}
    for cut in sorted(cuts):
        assert SPEC.prefix_of(trace[:cut]), "prefix rejected at %d" % cut


def test_spec_rejects_unsolicited_bulb_write():
    _, trace = run_session([], loops=1)
    tampered = trace + [("st", C.GPIO_OUTPUT_VAL_ADDR, 1 << C.LIGHTBULB_PIN)]
    assert not SPEC.matches(tampered)
    assert not SPEC.prefix_of(tampered)


def test_spec_rejects_wrong_bulb_polarity():
    # An OFF packet followed by an ON actuation must be rejected.
    _, trace = run_session([lightbulb_packet(False)])
    flipped = [(k, a, (1 << C.LIGHTBULB_PIN) if (k == "st" and a == C.GPIO_OUTPUT_VAL_ADDR) else v)
               for (k, a, v) in trace]
    # Keep kinds/addresses, flip only the bulb write's value:
    flipped = []
    for (k, a, v) in trace:
        if k == "st" and a == C.GPIO_OUTPUT_VAL_ADDR:
            flipped.append((k, a, 1 << C.LIGHTBULB_PIN))
        else:
            flipped.append((k, a, v))
    assert SPEC.matches(trace)
    assert not SPEC.matches(flipped)


def test_spec_rejects_dropped_boot():
    _, trace = run_session([], loops=1)
    assert not SPEC.matches(trace[5:])  # missing the start of BootSeq


def test_boot_seq_standalone():
    plat = make_platform()
    mem = Memory()
    state = State(mem, {})
    interp = Interpreter(PROG, ext=plat.ext_handler(), fuel=20_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    assert boot_seq().matches(to_mmio_triples(state.trace))


def test_iteration_star_covers_loops_only():
    plat = make_platform()
    # Skip boot: manually enable RX so polls see the device.
    _, full = run_session([lightbulb_packet(True)], platform=plat)
    # Find where boot ends: first RX_FIFO_INF transaction begins with the
    # CSMODE hold preceding a FASTREAD of RX_FIFO_INF; simpler: spec split.
    boot = OnlineChecker(boot_seq())
    boot_ends = []
    for end, event in enumerate(full):
        if boot.can_end():
            boot_ends.append(end)
        if not boot.feed([event]):
            break
    loops = Star(iteration())
    assert any(loops.matches(full[end:]) for end in boot_ends)


# -- program-logic verification (the headline checks) --------------------------------

def test_verify_all_driver_functions():
    from repro.sw.verify import verify_all

    run = verify_all()
    names = {r.function for r in run.reports}
    assert {"spi_write", "spi_read", "spi_xchg", "lan9250_readword",
            "lan9250_writeword", "lan9250_wait_for_boot", "lan9250_init",
            "lan9250_drain", "lan9250_tryrecv", "lightbulb_init",
            "lightbulb_loop"} <= names
    assert run.total_obligations > 80


def test_buggy_driver_fails_verification():
    from repro.sw.verify import verify_drain_buggy_fails

    err = verify_drain_buggy_fails()
    # The failing obligation is the store into the buffer.
    assert "store" in err.context


# -- one spec per function: a caller assumes only what the callee proves ----------

def _rewrite(cmd, edit):
    """``cmd`` with ``edit`` applied to every command reached through
    sequences and conditionals (``edit`` returns None to recurse)."""
    from dataclasses import replace

    from repro.bedrock2.ast_ import SIf, SSeq

    edited = edit(cmd)
    if edited is not None:
        return edited
    if isinstance(cmd, SSeq):
        return replace(cmd, first=_rewrite(cmd.first, edit),
                       rest=_rewrite(cmd.rest, edit))
    if isinstance(cmd, SIf):
        return replace(cmd, then_=_rewrite(cmd.then_, edit),
                       else_=_rewrite(cmd.else_, edit))
    return cmd


def _verify_edited(fname, edit):
    """Verify ``fname`` of the lightbulb program after ``edit`` rewrote its
    body; returns the VerificationError (fails if it verifies)."""
    from dataclasses import replace

    from repro.bedrock2.vcgen import VerificationError, verify_function
    from repro.sw.verify import SPECS, annotate, platform_mmio_spec

    program = lightbulb_program()
    program[fname] = replace(program[fname],
                             body=_rewrite(program[fname].body, edit))
    with pytest.raises(VerificationError) as err:
        verify_function(annotate(program), fname, SPECS,
                        platform_mmio_spec())
    return err.value


def test_caller_passing_an_offset_buffer_is_rejected():
    """``lan9250_tryrecv(buf + 4)`` would let the drain write 4 bytes past
    the caller's 1520-byte buffer: the call must prove its argument is
    the buffer's base."""
    from repro.bedrock2.ast_ import SCall

    def offset_call(cmd):
        if isinstance(cmd, SCall) and cmd.func == "lan9250_tryrecv":
            return call(cmd.binds, cmd.func, var("buf") + 4)
        return None

    err = _verify_edited("lightbulb_loop", offset_call)
    assert err.context == "lightbulb_loop/call:lan9250_tryrecv/pre/buf-is-region"


def test_drain_returning_an_unspecified_error_is_rejected():
    """Every caller assumes ``err in {0, -1}`` after the drain, so the
    drain itself must prove it."""
    err = _verify_edited("lan9250_drain",
                         lambda body: block(body, set_("err", lit(5))))
    assert err.context == "lan9250_drain/post-err"


def test_drain_post_is_proved_not_assumed(monkeypatch):
    """With ``ERR_TIMEOUT`` back in the drain loop's invariant the
    invariant no longer implies the post, and the drain's own task fails."""
    from repro.bedrock2.ast_ import SWhile
    from repro.bedrock2.vcgen import VerificationError
    from repro.logic import terms as T
    from repro.sw.verify import annotate, run_verify_task

    loops = []

    def collect(cmd):
        if isinstance(cmd, SWhile):
            loops.append(cmd.spec)

    _rewrite(annotate(lightbulb_program())["lan9250_drain"].body, collect)
    (loop,) = loops

    def with_timeout(state):
        # err may also be ERR_TIMEOUT, a value the drain never produces.
        err = state.locals["err"]
        return T.and_(
            T.ule(state.locals["i"], state.locals["num_words"]),
            T.ule(state.locals["num_words"], T.const(C.RX_BUFFER_BYTES // 4)),
            T.or_(*[T.eq(err, T.const(v))
                    for v in (0, 0xFFFFFFFF, C.ERR_TIMEOUT)]))

    monkeypatch.setattr(loop, "invariant", with_timeout)
    with pytest.raises(VerificationError) as err:
        run_verify_task("lightbulb:lan9250_drain")
    assert err.value.context == "lan9250_drain/post-err"
    assert [value for name, value in err.value.model.items()
            if name.startswith("err!")] == [C.ERR_TIMEOUT]


def test_every_spec_is_a_verification_task():
    """A call assumes its callee's spec, so every spec must be some task's
    proof obligation: no fact is assumed that no task proves."""
    from repro.sw.doorlock import doorlock_program
    from repro.sw.verify import DOORLOCK_TASKS, LIGHTBULB_TASKS, SPECS

    tasks = LIGHTBULB_TASKS + DOORLOCK_TASKS
    assert sorted(task.partition(":")[2] for task in tasks) == sorted(SPECS)
    programs = {"lightbulb": PROG, "doorlock": doorlock_program()}
    for task in tasks:
        app, _, fname = task.partition(":")
        assert fname in programs[app], task


def test_buggy_driver_overflows_at_source_level():
    """The paper's exploit, at the Bedrock2 level: with the buggy driver an
    oversize frame writes past the 1520-byte buffer, which the partial-
    memory semantics flags as UB (the 'unprovable goal' made concrete)."""
    from repro.bedrock2.semantics import UndefinedBehavior

    buggy = lightbulb_program(buggy_driver=True)
    plat = make_platform()
    mem = Memory.from_regions([(0x100000, bytes(C.RX_BUFFER_BYTES))])
    state = State(mem, {"buf": 0x100000})
    interp = Interpreter(buggy, ext=plat.ext_handler(), fuel=50_000_000)
    interp.exec_cmd(call(("e",), "lightbulb_init"), state)
    plat.lan.inject_frame(oversize_packet(2000))
    with pytest.raises(UndefinedBehavior):
        interp.exec_cmd(call(("e",), "lightbulb_loop", var("buf")), state)


def test_fixed_driver_survives_oversize_at_source_level():
    plat, trace = run_session([oversize_packet(2000)])
    assert not plat.gpio.bulb_on
    assert SPEC.matches(trace)
