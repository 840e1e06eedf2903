"""A DMA engine: the paper's section 6.2 extension, made concrete.

"The same interface is also powerful enough to model direct memory access
(DMA), by recording memory-ownership changes in the I/O trace, but we do
not make use of this feature in the lightbulb application."

This module exercises exactly that design point. The engine is a
memory-mapped device with ADDR/LEN/VALUE/CTRL/STATUS registers. Writing
CTRL=1 *takes ownership* of ``[ADDR, ADDR+LEN)`` away from the processor:
the machine's owned-memory footprint shrinks, so any CPU access to the
region while the transfer is in flight is undefined behavior -- the
ownership discipline the paper's trace events would enforce. Reading
STATUS polls the transfer; when it completes (after a programmable number
of polls, so software really waits), ownership returns with the region
filled by the device.

At the trace level the protocol is ordinary MMIO (the ownership changes
are a function of the CTRL/STATUS events), so the same trace-predicate
language specifies it -- see `dma_transfer_spec`.
"""

from __future__ import annotations

from .bus import Device

DMA_BASE = 0x10030000
DMA_SIZE = 0x1000

DMA_ADDR = 0x00
DMA_LEN = 0x04
DMA_VALUE = 0x08
DMA_CTRL = 0x0C
DMA_STATUS = 0x10

STATUS_BUSY = 1
STATUS_IDLE = 0


class DmaEngine(Device):
    """A fill engine: writes LEN bytes of VALUE at ADDR, asynchronously.

    ``attach_machine`` wires the ownership callbacks; the engine then
    borrows the region from the machine for the duration of the transfer.
    """

    base = DMA_BASE
    size = DMA_SIZE

    def __init__(self, transfer_polls: int = 3):
        self.transfer_polls = transfer_polls
        self.addr = 0
        self.length = 0
        self.value = 0
        self._busy_polls_left = 0
        self._machine = None
        self.transfers_completed = 0

    def attach_machine(self, machine) -> None:
        """Bind the processor whose memory this engine masters."""
        self._machine = machine

    def read(self, offset: int) -> int:
        if offset == DMA_STATUS:
            if self._busy_polls_left > 0:
                self._busy_polls_left -= 1
                if self._busy_polls_left == 0:
                    self._complete()
                return STATUS_BUSY
            return STATUS_IDLE
        if offset == DMA_ADDR:
            return self.addr
        if offset == DMA_LEN:
            return self.length
        if offset == DMA_VALUE:
            return self.value
        return 0

    def write(self, offset: int, value: int) -> None:
        if offset == DMA_ADDR:
            self.addr = value
        elif offset == DMA_LEN:
            self.length = value
        elif offset == DMA_VALUE:
            self.value = value & 0xFF
        elif offset == DMA_CTRL and value & 1:
            self._start()

    def _start(self) -> None:
        if self._machine is not None and self.length:
            # Ownership leaves the processor: CPU touches are now UB.
            self._machine.loan_out(self.addr, self.length)
        self._busy_polls_left = self.transfer_polls

    def _complete(self) -> None:
        if self._machine is not None and self.length:
            data = bytes([self.value]) * self.length
            self._machine.loan_return(self.addr, data)
        self.transfers_completed += 1


def dma_transfer_spec(addr: int, length: int, fill: int):
    """Trace predicate for one complete DMA fill transaction: program the
    registers, kick CTRL, poll STATUS busy*, then idle. Ownership changes
    are implied by the CTRL (take) and final STATUS (return) events --
    exactly how the paper proposes recording DMA in the trace."""
    from ..traces.predicates import Star, ld, seq, st, value_is

    return seq(
        st(DMA_BASE + DMA_ADDR, value_is(addr)),
        st(DMA_BASE + DMA_LEN, value_is(length)),
        st(DMA_BASE + DMA_VALUE, value_is(fill)),
        st(DMA_BASE + DMA_CTRL, value_is(1)),            # ownership: CPU -> DMA
        Star(ld(DMA_BASE + DMA_STATUS, value_is(STATUS_BUSY))),
        ld(DMA_BASE + DMA_STATUS, value_is(STATUS_IDLE)),  # ownership: DMA -> CPU
    )
