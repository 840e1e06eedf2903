"""Unit tests for the Kami memory module (byte enables, MMIO forwarding,
address wrap-around -- paper sections 5.5, 5.8, 6.4) and the world adapter
that shares device models between the Kami and ISA sides."""

import pytest

from repro.kami.framework import ExternalWorld, Module, RuleAbort, System
from repro.kami.memory import make_memory_module, ram_snapshot
from repro.platform.bus import KamiWorldAdapter, MMIOBus
from repro.platform.gpio import GPIO_OUTPUT_EN, Gpio


class RecordingWorld(ExternalWorld):
    def __init__(self):
        self.calls = []

    def call(self, method, args):
        self.calls.append((method, args))
        if method == "mmioRead":
            return 0x1234
        return None


def harness(image=b"", ram_words=16):
    mem = make_memory_module(image, ram_words=ram_words)
    driver = Module("drv")
    driver.reg("out", None)

    def run(fn):
        driver.regs["todo"] = fn
        system = System([mem, driver], RecordingWorld())
        return system

    return mem, driver, run


def make_system(image=b"", ram_words=16):
    mem = make_memory_module(image, ram_words=ram_words)
    system = System([mem], RecordingWorld())
    return mem, system


def test_image_loaded_little_endian():
    mem, system = make_system(image=bytes([0x11, 0x22, 0x33, 0x44, 0x55]))
    assert system.call("memFetch", 0) == 0x44332211
    assert system.call("memFetch", 4) == 0x55  # zero padded


def test_fetch_wraps_modulo_ram_size():
    mem, system = make_system(image=b"\xaa\x00\x00\x00", ram_words=16)
    assert system.call("memFetch", 16 * 4) == 0xAA  # wraps to word 0


def test_byte_enables_merge():
    mem, system = make_system(ram_words=16)
    system.call("memWrite", 0, 0xAABBCCDD, 0b1111)
    system.call("memWrite", 0, 0x000000EE, 0b0001)
    assert system.call("memRead", 0) == 0xAABBCCEE
    system.call("memWrite", 0, 0x11220000, 0b1100)
    assert system.call("memRead", 0) == 0x1122CCEE


def test_out_of_ram_forwards_to_mmio():
    mem, system = make_system(ram_words=16)
    value = system.call("memRead", 0x10012000)
    assert value == 0x1234
    system.call("memWrite", 0x10012008, 7, 0b1111)
    assert ("mmioWrite", (0x10012008, 7)) in system.external.calls


def test_subword_mmio_store_is_disabled():
    mem, system = make_system(ram_words=16)
    with pytest.raises(RuleAbort):
        system.call("memWrite", 0x10012000, 7, 0b0001)


def test_mem_is_ram_boundary():
    mem, system = make_system(ram_words=16)
    assert system.call("memIsRam", 0) == 1
    assert system.call("memIsRam", 16 * 4 - 1) == 1
    assert system.call("memIsRam", 16 * 4) == 0


def test_ram_snapshot_is_a_copy():
    mem, system = make_system(image=b"\x01\x00\x00\x00")
    snap = ram_snapshot(mem)
    snap[0] = 999
    assert system.call("memRead", 0) == 1


# -- the world adapter ---------------------------------------------------------------

def test_world_adapter_routes_to_devices():
    gpio = Gpio()
    bus = MMIOBus([gpio])
    adapter = KamiWorldAdapter(bus)
    adapter.call("mmioWrite", (gpio.base + GPIO_OUTPUT_EN, 0x42))
    assert gpio.output_en == 0x42
    assert adapter.call("mmioRead", (gpio.base + GPIO_OUTPUT_EN,)) == 0x42


def test_world_adapter_rejects_unknown_methods():
    adapter = KamiWorldAdapter(MMIOBus([]))
    with pytest.raises(KeyError):
        adapter.call("dmaBurst", (0,))
