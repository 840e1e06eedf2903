"""Trace specification for the door-lock application.

Same shape as the lightbulb's `good_hl_trace` (the spec combinators and
the driver-level sub-predicates are reused verbatim -- that is the
modularity payoff), with the application arm strengthened by the PIN
check: the lock actuates only for frames carrying the secret.

    goodLockTrace := BootSeq' +++
        ((EX b, RecvAuth pin b +++ LockCmd b)
         ||| RecvUnauth ||| PollNone ||| DeviceFail) ^*
"""

from __future__ import annotations

import functools

from ..traces.predicates import Exists, Guard, Star, TracePred, seq, st, union, value_is
from . import constants as C
from . import specs as S
from .doorlock import LOCK_PIN, OFF_LOCK_CMD, OFF_PIN
from .doorlock import MIN_LOCK_LENGTH
from .lightbulb import ETHERTYPE_IPV4, IP_PROTO_UDP, OFF_ETHERTYPE, OFF_IP_PROTO


def _boot_seq() -> TracePred:
    """Identical to the lightbulb BootSeq except the GPIO pin enabled."""
    gpio_setup = st(C.GPIO_OUTPUT_EN_ADDR, value_is(1 << LOCK_PIN),
                    "lock gpio enable")
    # Reuse the whole Ethernet bring-up from the lightbulb spec.
    lan_boot = S.boot_seq()
    # boot_seq() = lightbulb gpio + lan init; strip its gpio arm by
    # rebuilding: its structure is Concat(gpio_setup, init_arms).
    from ..traces.predicates import Concat

    assert isinstance(lan_boot, Concat)
    return gpio_setup + lan_boot.second


#: The data-FIFO words the PIN check reads, by index.
_LOCK_WORDS = {OFF_ETHERTYPE // 4: "w_ethertype",
               OFF_IP_PROTO // 4: "w_proto",
               OFF_PIN // 4: "w_pin",
               OFF_LOCK_CMD // 4: "w_cmd"}


def _frame_authorized(env, pin: int) -> bool:
    if env["len"] < MIN_LOCK_LENGTH:
        return False
    ethertype = ((env["w_ethertype"] & 0xFF) << 8) \
        | ((env["w_ethertype"] >> 8) & 0xFF)
    if ethertype != ETHERTYPE_IPV4:
        return False
    if (env["w_proto"] >> (8 * (OFF_IP_PROTO % 4))) & 0xFF != IP_PROTO_UDP:
        return False
    return env["w_pin"] == pin


def _cmd_bit(env) -> int:
    return (env["w_cmd"] >> (8 * (OFF_LOCK_CMD % 4))) & 1


def recv_auth(pin: int, b: int) -> TracePred:
    """A frame carrying the correct PIN commanding lock state ``b``."""
    return seq(
        S._fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        S.lan_readword(C.LAN_RX_STATUS_FIFO, S._status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits"),
        S.drain_words(_LOCK_WORDS),
        Guard(lambda env: _frame_authorized(env, pin) and _cmd_bit(env) == b,
              "authorized %d" % b),
    )


def lock_cmd(b: int) -> TracePred:
    return st(C.GPIO_OUTPUT_VAL_ADDR, value_is((b & 1) << LOCK_PIN),
              "lock := %d" % b)


def recv_unauthorized(pin: int) -> TracePred:
    """Any frame that must be ignored: oversize, malformed, or wrong PIN.
    Crucially there is NO arm that writes the GPIO here -- the security
    property is that absence."""
    oversize = seq(
        S._fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        S.lan_readword(C.LAN_RX_STATUS_FIFO, S._status_capture),
        Guard(lambda env: env["len"] > C.RX_BUFFER_BYTES, "oversize"),
        union(S.lan_writeword(C.LAN_RX_CFG, value_is(C.RX_CFG_RX_DUMP)),
              S.lan_writeword_fail(C.LAN_RX_CFG)),
    )
    rejected = seq(
        S._fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        S.lan_readword(C.LAN_RX_STATUS_FIFO, S._status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits"),
        S.drain_words(_LOCK_WORDS),
        Guard(lambda env: not _frame_authorized(env, pin), "unauthorized"),
    )
    return union(oversize, rejected)


@functools.lru_cache(maxsize=None)
def good_lock_trace(pin: int) -> TracePred:
    """``goodLockTrace`` for ``pin``, built once per process."""
    return _boot_seq() + Star(union(
        Exists("b", (0, 1), lambda b: recv_auth(pin, b) + lock_cmd(b)),
        recv_unauthorized(pin),
        S.poll_none(),
        S.device_fail(),
    ) + S.end_iteration())
