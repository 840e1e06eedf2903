"""The MMIO device bus: the platform's memory map.

This is the boundary the paper's end-to-end theorem speaks about: every
MMIO load and store the processor issues crosses this bus and becomes a
trace event. The address map mirrors the SiFive FE310 microcontroller the
paper replicated its SPI and GPIO interfaces from (section 5.1), which is
what allowed the authors to test hardware and software separately.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .. import obs

# Every MMIO access in the whole system -- from the ISA machine, the Kami
# processors, or the Bedrock2 interpreters -- crosses this bus, so these
# two counters are the ground truth for MMIO event totals.
_BUS_READS = obs.counter("platform.bus_reads")
_BUS_WRITES = obs.counter("platform.bus_writes")

# FE310-compatible memory map (section 5.1). Immutable: a device outside
# it (the DMA engine) is decoded by the bus that holds it, not added here.
GPIO_BASE = 0x10012000
GPIO_SIZE = 0x1000
SPI_BASE = 0x10024000
SPI_SIZE = 0x1000

MMIO_RANGES: Tuple[Tuple[int, int], ...] = (
    (GPIO_BASE, GPIO_BASE + GPIO_SIZE),
    (SPI_BASE, SPI_BASE + SPI_SIZE),
)


class Device:
    """A memory-mapped device occupying an address range."""

    base = 0
    size = 0

    def read(self, offset: int) -> int:
        raise NotImplementedError

    def write(self, offset: int, value: int) -> None:
        raise NotImplementedError

    def covers(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class MMIOBus:
    """Routes word-aligned MMIO reads/writes to devices.

    The bus decodes the FE310 map plus the range of each device it holds
    that lies outside the map. Reads from unmapped-but-in-range addresses
    return 0 and writes are dropped, like a bus with no slave response
    check -- the *software* is what is verified never to touch undefined
    registers."""

    def __init__(self, devices: Iterable[Device] = ()):
        self.devices: List[Device] = []
        self.ranges: Tuple[Tuple[int, int], ...] = MMIO_RANGES
        for device in devices:
            self.attach(device)

    def attach(self, device: Device) -> None:
        self.devices.append(device)
        lo, hi = device.base, device.base + device.size
        if not any(blo <= lo and hi <= bhi for blo, bhi in self.ranges):
            self.ranges += ((lo, hi),)

    def is_mmio(self, addr: int) -> bool:
        # A plain loop, not any() over a generator: this runs on every
        # non-RAM access.
        for lo, hi in self.ranges:
            if lo <= addr < hi:
                return True
        return False

    def read(self, addr: int) -> int:
        _BUS_READS.inc()
        if obs.ENABLED:
            obs.instant("mmio.read", cat="platform", args={"addr": addr})
        for device in self.devices:
            if device.covers(addr):
                return device.read(addr - device.base) & 0xFFFFFFFF
        return 0

    def write(self, addr: int, value: int) -> None:
        _BUS_WRITES.inc()
        if obs.ENABLED:
            obs.instant("mmio.write", cat="platform",
                        args={"addr": addr, "value": value})
        for device in self.devices:
            if device.covers(addr):
                device.write(addr - device.base, value & 0xFFFFFFFF)
                return


class KamiWorldAdapter:
    """Presents an `MMIOBus` as a Kami `ExternalWorld` so the same device
    models sit behind the Kami processors and the ISA-level machine."""

    def __init__(self, bus: MMIOBus):
        self.bus = bus

    def call(self, method: str, args):
        if method == "mmioRead":
            return self.bus.read(args[0])
        if method == "mmioWrite":
            self.bus.write(args[0], args[1])
            return None
        raise KeyError("no provider for external method %r" % method)
