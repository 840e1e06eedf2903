"""A second application on the same verified stack: a UDP door lock.

The paper (section 3): "While this system could be used for any simple
application, this paper focuses on one specific example we call the
verified IoT lightbulb." This module substantiates the "any simple
application" claim: a door lock that toggles only when a UDP packet
carries the correct 4-byte PIN -- reusing the SPI driver, the LAN9250
driver, their specs, and the platform models *unchanged* (the
modularity dividend), with its own application logic and its own
trace specification (`repro.sw.doorlock_spec`).

Packet layout (extends the lightbulb's): bytes 42..45 = PIN (little-
endian word), byte 46 bit 0 = desired lock state (1 = unlocked).
"""

from __future__ import annotations

from ..bedrock2.ast_ import Program
from ..bedrock2.builder import (
    block, call, func, if_, interact, lit, load1, load4, set_, stackalloc,
    var, while_,
)
from . import constants as C
from . import lan9250_driver, lightbulb, spi_driver

# The lock actuator lives on its own GPIO pin.
LOCK_PIN = 24

# Offsets within the received frame.
OFF_PIN = 44           # word-aligned so the app can use load4
OFF_LOCK_CMD = 48
MIN_LOCK_LENGTH = 49

DEFAULT_PIN = 0xC0DE1234


def make_doorlock_init():
    body = block(
        interact([], "MMIOWRITE", lit(C.GPIO_OUTPUT_EN_ADDR),
                 lit(1 << LOCK_PIN)),
        call(("err",), "lan9250_init"),
    )
    return func("doorlock_init", (), ("err",), body)


def make_doorlock_loop(pin: int = DEFAULT_PIN):
    body = block(
        set_("err", lit(0)),
        call(("l", "e"), "lan9250_tryrecv", var("buf")),
        if_(var("e") != 0,
            set_("err", var("e")),
            if_(var("l") != 0, block(
                set_("ok", lit(1)),
                if_(var("l") < MIN_LOCK_LENGTH, set_("ok", lit(0))),
                if_(var("ok"), block(
                    set_("ethertype",
                         (load1(var("buf") + lightbulb.OFF_ETHERTYPE) << 8)
                         | load1(var("buf") + lightbulb.OFF_ETHERTYPE + 1)),
                    if_(var("ethertype") != lightbulb.ETHERTYPE_IPV4,
                        set_("ok", lit(0))),
                )),
                if_(var("ok"), block(
                    set_("proto", load1(var("buf") + lightbulb.OFF_IP_PROTO)),
                    if_(var("proto") != lightbulb.IP_PROTO_UDP,
                        set_("ok", lit(0))),
                )),
                if_(var("ok"), block(
                    # The authentication check this app adds over the bulb.
                    set_("pin", load4(var("buf") + OFF_PIN)),
                    if_(var("pin") != pin, set_("ok", lit(0))),
                )),
                if_(var("ok"), block(
                    set_("cmd", load1(var("buf") + OFF_LOCK_CMD) & 1),
                    interact([], "MMIOWRITE", lit(C.GPIO_OUTPUT_VAL_ADDR),
                             var("cmd") << LOCK_PIN),
                )),
            ))),
    )
    return func("doorlock_loop", ("buf",), ("err",), body)


def make_main():
    body = stackalloc("buf", C.RX_BUFFER_BYTES, block(
        call(("err",), "doorlock_init"),
        while_(lit(1), call(("err",), "doorlock_loop", var("buf"))),
    ))
    return func("main", (), (), body)


def make_doorlock_service():
    body = stackalloc("buf", C.RX_BUFFER_BYTES, block(
        call(("err",), "doorlock_init"),
        while_(var("n"), block(
            call(("err",), "doorlock_loop", var("buf")),
            set_("n", var("n") - 1),
        )),
    ))
    return func("doorlock_service", ("n",), ("err",), body)


def doorlock_program(pin: int = DEFAULT_PIN) -> Program:
    """The full door-lock program: same drivers, new application."""
    program: Program = {}
    program.update(spi_driver.functions())
    program.update(lan9250_driver.functions())
    program["doorlock_init"] = make_doorlock_init()
    program["doorlock_loop"] = make_doorlock_loop(pin)
    program["doorlock_service"] = make_doorlock_service()
    program["main"] = make_main()
    return program


def lock_packet(pin: int, unlock: bool) -> bytes:
    """A well-formed lock-command frame."""
    from ..platform.net import ethernet_frame, ipv4_header, udp_datagram

    payload = bytes(OFF_PIN - 42) + pin.to_bytes(4, "little") \
        + bytes([1 if unlock else 0])
    udp = udp_datagram(payload)
    return ethernet_frame(ipv4_header(len(udp)) + udp)
