"""The lightbulb's trace specification (paper section 3.1).

This is our rendition of the paper's one-page application-level promise:

    goodHlTrace :=
      BootSeq +++ ((EX b: bool, Recv b +++ LightbulbCmd b)
                   ||| RecvInvalid ||| PollNone ||| DeviceFail) ^*

built bottom-up from the SPI wire protocol exactly as the software is: an
``spi_xchg`` transaction, LAN9250 word reads/writes over it, the boot
incantations, and finally the three event-loop behaviors. The existential
``EX b`` ties the GPIO write to the *command bit captured from the packet
bytes on the wire* -- the security property: the bulb changes state only
as commanded by a valid UDP packet.

Like the paper's, the spec is deliberately lax where laxness is safe
(e.g. it does not bound how many busy polls a transfer may take), and the
``DeviceFail`` arms cover driver timeouts, which exist because the paper
proves *total* correctness.
"""

from __future__ import annotations

import functools

from ..traces.predicates import (
    Bind,
    Epsilon,
    Exists,
    Guard,
    RepeatN,
    Star,
    TracePred,
    ld,
    seq,
    st,
    union,
    value_is,
    value_where,
)
from . import constants as C
from .lightbulb import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    MIN_VALID_LENGTH,
    OFF_CMD,
    OFF_ETHERTYPE,
    OFF_IP_PROTO,
)

FLAG = 1 << 31


# -- SPI layer -------------------------------------------------------------------

def _tx_busy():
    return ld(C.SPI_TXDATA_ADDR, value_where(lambda v: v & FLAG),
              "txdata busy")


def _tx_clear():
    return ld(C.SPI_TXDATA_ADDR, value_where(lambda v: not (v & FLAG)),
              "txdata clear")


def _rx_empty():
    return ld(C.SPI_RXDATA_ADDR, value_where(lambda v: v & FLAG),
              "rxdata empty")


def spi_write_ok(byte_fn) -> TracePred:
    """Busy-polls, then the store of the byte. ``byte_fn(value, env)``
    constrains/captures the written byte."""
    return seq(Star(_tx_busy()), _tx_clear(),
               st(C.SPI_TXDATA_ADDR, byte_fn, "tx byte"))


def spi_read_ok(value_fn) -> TracePred:
    return seq(Star(_rx_empty()),
               ld(C.SPI_RXDATA_ADDR,
                  lambda v, env: value_fn(v & 0xFF, env) if not (v & FLAG) else None,
                  "rx byte"))


def _accept(v, env):
    return env


def xchg_ok(tx_fn, rx_fn=_accept) -> TracePred:
    return spi_write_ok(tx_fn) + spi_read_ok(rx_fn)


def xchg_const(byte: int) -> TracePred:
    return xchg_ok(value_is(byte & 0xFF))


def spi_write_timeout() -> TracePred:
    pred = Epsilon()
    for _ in range(C.SPI_PATIENCE):
        pred = pred + _tx_busy()
    return pred


def spi_read_timeout() -> TracePred:
    pred = Epsilon()
    for _ in range(C.SPI_PATIENCE):
        pred = pred + _rx_empty()
    return pred


def xchg_fail(tx_fn) -> TracePred:
    return union(spi_write_timeout(),
                 spi_write_ok(tx_fn) + spi_read_timeout())


# -- LAN9250 word transactions over SPI --------------------------------------------

def _cs_hold():
    return st(C.SPI_CSMODE_ADDR, value_is(C.CSMODE_HOLD), "cs hold")


def _cs_auto():
    return st(C.SPI_CSMODE_ADDR, value_is(C.CSMODE_AUTO), "cs auto")


def _addr_bytes(addr: int):
    return [xchg_const((addr >> 8) & 0xFF), xchg_const(addr & 0xFF)]


def _capture_byte(name: str):
    def fn(v, env):
        new = dict(env)
        new[name] = v & 0xFF
        return new
    return fn


def _bind_word(names, word_fn) -> TracePred:
    """Rebinds the environment to ``word_fn(word, env)``, where ``word`` is
    the little-endian word of the bytes captured as ``names`` and ``env``
    no longer holds those bytes: nothing reads them again, and the
    checker's states would otherwise differ by stale bytes."""
    b0, b1, b2, b3 = names

    def bind(env):
        word = env[b0] | (env[b1] << 8) | (env[b2] << 16) | (env[b3] << 24)
        return word_fn(word, {name: value for name, value in env.items()
                              if name not in names})

    return Bind(bind, "word")


def lan_readword(addr: int, word_fn) -> TracePred:
    """A successful fast-read of one register. ``word_fn(value, env)``
    constrains/captures the assembled little-endian word."""
    return seq(
        _cs_hold(),
        xchg_const(C.CMD_FAST_READ),
        *_addr_bytes(addr),
        xchg_const(0),  # dummy
        xchg_ok(value_is(0), _capture_byte("_b0")),
        xchg_ok(value_is(0), _capture_byte("_b1")),
        xchg_ok(value_is(0), _capture_byte("_b2")),
        xchg_ok(value_is(0), _capture_byte("_b3")),
        _bind_word(("_b0", "_b1", "_b2", "_b3"), word_fn),
        _cs_auto(),
    )


def lan_readword_fail(addr: int) -> TracePred:
    """A register read aborted by an SPI timeout at any stage."""
    prefix_steps = [xchg_const(C.CMD_FAST_READ)] + _addr_bytes(addr) \
        + [xchg_const(0)] * 5
    tx_values = ([C.CMD_FAST_READ, (addr >> 8) & 0xFF, addr & 0xFF]
                 + [0] * 5)
    arms = []
    for k in range(len(prefix_steps)):
        arms.append(seq(_cs_hold(), *prefix_steps[:k],
                        xchg_fail(value_is(tx_values[k])), _cs_auto()))
    return union(*arms)


def lan_writeword(addr: int, value_fn) -> TracePred:
    def byte_of(i):
        def fn(v, env):
            new = dict(env)
            new["_wb%d" % i] = v & 0xFF
            return new
        return fn

    return seq(
        _cs_hold(),
        xchg_const(C.CMD_WRITE),
        *_addr_bytes(addr),
        xchg_ok(byte_of(0)), xchg_ok(byte_of(1)),
        xchg_ok(byte_of(2)), xchg_ok(byte_of(3)),
        _bind_word(("_wb0", "_wb1", "_wb2", "_wb3"), value_fn),
        _cs_auto(),
    )


def lan_writeword_fail(addr: int) -> TracePred:
    prefix = [xchg_const(C.CMD_WRITE)] + _addr_bytes(addr)
    tx_values = [C.CMD_WRITE, (addr >> 8) & 0xFF, addr & 0xFF]
    arms = []
    for k in range(8):
        if k < 3:
            arms.append(seq(_cs_hold(), *prefix[:k],
                            xchg_fail(value_is(tx_values[k])), _cs_auto()))
        else:
            # Failure while clocking a data byte (value unconstrained).
            arms.append(seq(_cs_hold(), *prefix,
                            *[xchg_ok(_accept)] * (k - 3),
                            xchg_fail(lambda v, env: env), _cs_auto()))
    return union(*arms)


# -- BootSeq (paper: "a series of incantations mandated by the Ethernet
#    controller") ------------------------------------------------------------------

def boot_seq() -> TracePred:
    gpio_setup = st(C.GPIO_OUTPUT_EN_ADDR,
                    value_is(1 << C.LIGHTBULB_PIN), "gpio enable")
    byte_test_wrong = lan_readword(
        C.LAN_BYTE_TEST,
        lambda v, env: env if v != C.BYTE_TEST_VALUE else None)
    byte_test_right = lan_readword(C.LAN_BYTE_TEST,
                                   lambda v, env: env
                                   if v == C.BYTE_TEST_VALUE else None)
    byte_test_attempt = union(byte_test_wrong,
                              lan_readword_fail(C.LAN_BYTE_TEST))
    wait_boot_ok = Star(byte_test_attempt) + byte_test_right
    wait_boot_fail = Star(byte_test_attempt)

    hw_cfg_not_ready = lan_readword(
        C.LAN_HW_CFG,
        lambda v, env: env if not ((v >> C.HW_CFG_READY_BIT) & 1) else None)
    hw_cfg_ready = lan_readword(
        C.LAN_HW_CFG,
        lambda v, env: env if (v >> C.HW_CFG_READY_BIT) & 1 else None)
    hw_attempt = union(hw_cfg_not_ready, lan_readword_fail(C.LAN_HW_CFG))
    wait_ready_ok = Star(hw_attempt) + hw_cfg_ready
    wait_ready_fail = Star(hw_attempt)

    mac_enable = seq(
        lan_writeword(C.LAN_MAC_CSR_DATA, value_is(C.MAC_CR_RXEN)),
        lan_writeword(C.LAN_MAC_CSR_CMD,
                      value_is(C.MAC_CSR_BUSY | C.MAC_CR)),
    )
    mac_enable_fail = union(
        lan_writeword_fail(C.LAN_MAC_CSR_DATA),
        lan_writeword(C.LAN_MAC_CSR_DATA, value_is(C.MAC_CR_RXEN))
        + lan_writeword_fail(C.LAN_MAC_CSR_CMD),
    )

    init_ok = wait_boot_ok + wait_ready_ok + mac_enable
    init_fail = union(wait_boot_fail,
                      wait_boot_ok + wait_ready_fail,
                      wait_boot_ok + wait_ready_ok + mac_enable_fail)
    return gpio_setup + union(init_ok, init_fail)


# -- event-loop iterations ------------------------------------------------------------

def _fifo_inf(frames_fn) -> TracePred:
    return lan_readword(C.LAN_RX_FIFO_INF, frames_fn)


def poll_none() -> TracePred:
    """PollNone: the Ethernet card reports no pending frame."""
    return _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) == 0 else None)


def _status_capture(v, env):
    new = dict(env)
    new["len"] = (v >> 16) & 0x3FFF
    return new


#: The data-FIFO words validation reads, by index: captured while draining.
_VALIDATION_WORDS = {OFF_ETHERTYPE // 4: "w_ethertype",
                     OFF_IP_PROTO // 4: "w_proto",
                     OFF_CMD // 4: "w_cmd"}


def drain_words(captures) -> TracePred:
    """ceil(len/4) data-FIFO reads; word ``i`` is captured as
    ``captures[i]`` when present. Every other word shares one body."""
    plain = lan_readword(C.LAN_RX_DATA_FIFO, _accept)

    def body(i: int) -> TracePred:
        name = captures.get(i)
        if name is None:
            return plain

        def cap(v, env):
            new = dict(env)
            new[name] = v
            return new

        return lan_readword(C.LAN_RX_DATA_FIFO, cap)

    return RepeatN(_words, body)


def _words(env) -> int:
    return (env["len"] + 3) >> 2


def _frame_valid(env) -> bool:
    if env["len"] < MIN_VALID_LENGTH:
        return False
    ethertype = ((env["w_ethertype"] >> (8 * (OFF_ETHERTYPE % 4))) & 0xFF) << 8 \
        | ((env["w_ethertype"] >> (8 * ((OFF_ETHERTYPE + 1) % 4))) & 0xFF)
    if ethertype != ETHERTYPE_IPV4:
        return False
    proto = (env["w_proto"] >> (8 * (OFF_IP_PROTO % 4))) & 0xFF
    return proto == IP_PROTO_UDP


def _cmd_bit(env) -> int:
    return (env["w_cmd"] >> (8 * (OFF_CMD % 4))) & 1


def recv(b: int) -> TracePred:
    """Recv b: a well-formed frame whose command bit is ``b`` arrives."""
    return seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer"),
        drain_words(_VALIDATION_WORDS),
        Guard(lambda env: _frame_valid(env) and _cmd_bit(env) == b,
              "valid command %d" % b),
    )


def lightbulb_cmd(b: int) -> TracePred:
    """LightbulbCmd b: the actuation the application owes for Recv b."""
    return st(C.GPIO_OUTPUT_VAL_ADDR, value_is((b & 1) << C.LIGHTBULB_PIN),
              "bulb := %d" % b)


def recv_invalid() -> TracePred:
    """RecvInvalid: a frame arrives but is ignored -- oversize (rejected by
    the driver before any FIFO read) or drained but failing validation."""
    oversize = seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] > C.RX_BUFFER_BYTES, "oversize"),
        # The driver dumps the RX FIFOs instead of draining the frame.
        union(lan_writeword(C.LAN_RX_CFG, value_is(C.RX_CFG_RX_DUMP)),
              lan_writeword_fail(C.LAN_RX_CFG)),
    )
    malformed = seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer"),
        drain_words(_VALIDATION_WORDS),
        Guard(lambda env: not _frame_valid(env), "fails validation"),
    )
    return union(oversize, malformed)


def device_fail() -> TracePred:
    """DeviceFail: an iteration cut short by an SPI/device timeout. Exists
    because the drivers are *total*: they give up rather than spin."""
    inf_ok = _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None)
    status_ok = lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture)
    fits = Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer")

    # A failing data read after k successful ones, k < ceil(len/4); the
    # count of successful reads is kept as ``_k``.
    more = Guard(lambda env: env["_k"] < _words(env), "words left")
    drain_fail = seq(
        Bind(lambda env: dict(env, _k=0), "k := 0"),
        Star(seq(more, lan_readword(C.LAN_RX_DATA_FIFO, _accept),
                 Bind(lambda env: dict(env, _k=env["_k"] + 1), "k += 1"))),
        more,
        lan_readword_fail(C.LAN_RX_DATA_FIFO),
    )

    return union(
        lan_readword_fail(C.LAN_RX_FIFO_INF),
        inf_ok + lan_readword_fail(C.LAN_RX_STATUS_FIFO),
        inf_ok + status_ok + fits + drain_fail,
    )


# -- the top-level specification -------------------------------------------------------

def iteration() -> TracePred:
    """One event-loop iteration's allowed behaviors."""
    return union(
        Exists("b", (0, 1), lambda b: recv(b) + lightbulb_cmd(b)),
        recv_invalid(),
        poll_none(),
        device_fail(),
    )


def end_iteration() -> TracePred:
    """The empty trace, forgetting every value the iteration captured, so
    the next iteration starts from the same environment whatever frame
    came before (and the spec automaton's states recur across frames)."""
    return Bind(lambda env: {}, "end of iteration")


@functools.lru_cache(maxsize=None)
def good_hl_trace() -> TracePred:
    """``goodHlTrace`` (paper section 3.1): the whole system's promise.
    Built once per process, like the compiled images."""
    return boot_seq() + Star(iteration() + end_iteration())
