"""Unit tests for the device models: bus, GPIO, SPI, LAN9250, packets."""


from repro.platform.bus import GPIO_BASE, MMIO_RANGES, MMIOBus, SPI_BASE
from repro.platform.gpio import GPIO_OUTPUT_EN, GPIO_OUTPUT_VAL, Gpio, LIGHTBULB_PIN
from repro.platform.lan9250 import (
    BYTE_TEST, BYTE_TEST_VALUE, CMD_FAST_READ, CMD_WRITE, HW_CFG,
    HW_CFG_READY, Lan9250, MAC_CR, MAC_CR_RXEN, MAC_CSR_BUSY, MAC_CSR_CMD,
    MAC_CSR_DATA, RESET_CTL, RX_DATA_FIFO, RX_FIFO_INF, RX_STATUS_FIFO,
)
from repro.platform.net import (
    ETHERTYPE_IPV4, OFF_CMD, OFF_ETHERTYPE, OFF_IP_PROTO, adversarial_stream,
    ipv4_header, is_valid_command, lightbulb_packet, non_udp_packet,
    oversize_packet, truncated_packet, wrong_ethertype_packet,
)
from repro.platform.spi import CSMODE_AUTO, CSMODE_HOLD, FLAG_BIT, Spi, SPI_CSMODE, SPI_RXDATA, SPI_TXDATA


# -- GPIO ---------------------------------------------------------------------

def test_gpio_bulb_requires_enable():
    gpio = Gpio()
    gpio.write(GPIO_OUTPUT_VAL, 1 << LIGHTBULB_PIN)
    assert not gpio.bulb_on  # output not enabled yet
    gpio.write(GPIO_OUTPUT_EN, 1 << LIGHTBULB_PIN)
    gpio.write(GPIO_OUTPUT_VAL, 1 << LIGHTBULB_PIN)
    assert gpio.bulb_on


def test_gpio_history_records_transitions():
    gpio = Gpio()
    gpio.write(GPIO_OUTPUT_EN, 1 << LIGHTBULB_PIN)
    gpio.write(GPIO_OUTPUT_VAL, 1 << LIGHTBULB_PIN)
    gpio.write(GPIO_OUTPUT_VAL, 1 << LIGHTBULB_PIN)  # no transition
    gpio.write(GPIO_OUTPUT_VAL, 0)
    assert gpio.bulb_history == [1, 0]


def test_gpio_readback():
    gpio = Gpio()
    gpio.write(GPIO_OUTPUT_EN, 0xABC)
    assert gpio.read(GPIO_OUTPUT_EN) == 0xABC


# -- MMIO bus -------------------------------------------------------------------

def test_bus_routing_and_ranges():
    gpio = Gpio()
    bus = MMIOBus([gpio])
    assert bus.ranges == MMIO_RANGES  # a device inside the map adds none
    assert bus.is_mmio(GPIO_BASE)
    assert bus.is_mmio(SPI_BASE)
    assert not bus.is_mmio(0x1000)
    bus.write(GPIO_BASE + GPIO_OUTPUT_EN, 5)
    assert gpio.output_en == 5
    assert bus.read(GPIO_BASE + GPIO_OUTPUT_EN) == 5
    # Unmapped-but-in-range: reads 0, writes dropped.
    assert bus.read(SPI_BASE + 0x100) == 0


# -- SPI ------------------------------------------------------------------------

class EchoSlave:
    def __init__(self):
        self.received = []
        self.deselects = 0

    def exchange(self, b):
        self.received.append(b)
        return (b + 1) & 0xFF

    def chip_deselect(self):
        self.deselects += 1


def test_spi_exchange_roundtrip():
    slave = EchoSlave()
    spi = Spi(slave=slave, rx_latency=0)
    spi.write(SPI_TXDATA, 0x41)
    assert slave.received == [0x41]
    assert spi.read(SPI_RXDATA) == 0x42


def test_spi_rx_latency_forces_polling():
    spi = Spi(slave=EchoSlave(), rx_latency=2)
    spi.write(SPI_TXDATA, 1)
    assert spi.read(SPI_RXDATA) & FLAG_BIT   # first poll: not ready
    assert spi.read(SPI_RXDATA) & FLAG_BIT   # second poll: not ready
    assert spi.read(SPI_RXDATA) == 2         # now the byte


def test_spi_empty_rx_flag():
    spi = Spi(slave=EchoSlave())
    assert spi.read(SPI_RXDATA) & FLAG_BIT


def test_spi_fifo_full_flag_and_overrun():
    spi = Spi(slave=EchoSlave(), fifo_depth=2, rx_latency=0)
    spi.write(SPI_TXDATA, 1)
    spi.write(SPI_TXDATA, 2)
    assert spi.read(SPI_TXDATA) & FLAG_BIT  # full
    spi.write(SPI_TXDATA, 3)                # dropped
    assert len(spi.rx_fifo) == 2


def test_spi_csmode_deselect_notifies_slave():
    slave = EchoSlave()
    spi = Spi(slave=slave)
    spi.write(SPI_CSMODE, CSMODE_HOLD)
    spi.write(SPI_CSMODE, CSMODE_AUTO)
    assert slave.deselects == 1


# -- LAN9250 ---------------------------------------------------------------------

def spi_readword(lan, addr):
    """Drive the SPI protocol directly (fast read)."""
    lan.exchange(CMD_FAST_READ)
    lan.exchange((addr >> 8) & 0xFF)
    lan.exchange(addr & 0xFF)
    lan.exchange(0)  # dummy
    value = 0
    for i in range(4):
        value |= lan.exchange(0) << (8 * i)
    lan.chip_deselect()
    return value


def spi_writeword(lan, addr, value):
    lan.exchange(CMD_WRITE)
    lan.exchange((addr >> 8) & 0xFF)
    lan.exchange(addr & 0xFF)
    for i in range(4):
        lan.exchange((value >> (8 * i)) & 0xFF)
    lan.chip_deselect()


def booted_lan(**kwargs):
    lan = Lan9250(power_up_reads=0, **kwargs)
    spi_writeword(lan, MAC_CSR_DATA, MAC_CR_RXEN)
    spi_writeword(lan, MAC_CSR_CMD, MAC_CSR_BUSY | MAC_CR)
    assert lan.rx_enabled
    return lan


def test_byte_test_after_powerup():
    lan = Lan9250(power_up_reads=2)
    assert spi_readword(lan, BYTE_TEST) != BYTE_TEST_VALUE
    assert spi_readword(lan, BYTE_TEST) != BYTE_TEST_VALUE
    assert spi_readword(lan, BYTE_TEST) == BYTE_TEST_VALUE


def test_hw_cfg_ready_bit():
    lan = Lan9250(power_up_reads=1)
    assert not (spi_readword(lan, HW_CFG) & HW_CFG_READY)
    assert spi_readword(lan, HW_CFG) & HW_CFG_READY


def test_mac_csr_indirect_write_and_read():
    lan = Lan9250(power_up_reads=0)
    spi_writeword(lan, MAC_CSR_DATA, MAC_CR_RXEN)
    spi_writeword(lan, MAC_CSR_CMD, MAC_CSR_BUSY | MAC_CR)
    assert lan.mac_regs[MAC_CR] == MAC_CR_RXEN
    # Read command round-trips.
    spi_writeword(lan, MAC_CSR_CMD, MAC_CSR_BUSY | (1 << 30) | MAC_CR)
    assert spi_readword(lan, MAC_CSR_DATA) == MAC_CR_RXEN


def test_frames_dropped_until_rx_enabled():
    lan = Lan9250(power_up_reads=0)
    assert not lan.inject_frame(lightbulb_packet(True))
    assert lan.dropped_frames == 1


def test_frame_reception_full_path():
    lan = booted_lan()
    frame = lightbulb_packet(True)
    assert lan.inject_frame(frame)
    info = spi_readword(lan, RX_FIFO_INF)
    assert (info >> 16) & 0xFF == 1
    status = spi_readword(lan, RX_STATUS_FIFO)
    length = (status >> 16) & 0x3FFF
    assert length == len(frame)
    data = bytearray()
    for _ in range((length + 3) // 4):
        data += spi_readword(lan, RX_DATA_FIFO).to_bytes(4, "little")
    assert bytes(data[:length]) == frame
    # FIFO now empty.
    assert (spi_readword(lan, RX_FIFO_INF) >> 16) & 0xFF == 0


def test_multiple_frames_queue_in_order():
    lan = booted_lan()
    lan.inject_frame(lightbulb_packet(True))
    lan.inject_frame(lightbulb_packet(False))
    assert (spi_readword(lan, RX_FIFO_INF) >> 16) & 0xFF == 2
    first_len = (spi_readword(lan, RX_STATUS_FIFO) >> 16) & 0x3FFF
    for _ in range((first_len + 3) // 4):
        spi_readword(lan, RX_DATA_FIFO)
    assert (spi_readword(lan, RX_FIFO_INF) >> 16) & 0xFF == 1


def test_reset_clears_state():
    lan = Lan9250(power_up_reads=2)
    spi_readword(lan, BYTE_TEST)
    spi_readword(lan, BYTE_TEST)
    assert spi_readword(lan, BYTE_TEST) == BYTE_TEST_VALUE
    spi_writeword(lan, MAC_CSR_DATA, MAC_CR_RXEN)
    spi_writeword(lan, MAC_CSR_CMD, MAC_CSR_BUSY | MAC_CR)
    lan.inject_frame(lightbulb_packet(True))
    spi_writeword(lan, RESET_CTL, 1)
    assert not lan.rx_enabled
    assert not lan.frames
    assert spi_readword(lan, BYTE_TEST) != BYTE_TEST_VALUE  # powering up again


def test_oversize_frame_accepted_by_nic():
    # The NIC accepts jumbo frames -- protection is the driver's job.
    lan = booted_lan()
    assert lan.inject_frame(oversize_packet(2000))
    status = spi_readword(lan, RX_STATUS_FIFO)
    assert (status >> 16) & 0x3FFF == 2000


def test_unknown_spi_command_ignored():
    lan = booted_lan()
    assert lan.exchange(0x99) == 0xFF  # not a command: stays idle
    lan.chip_deselect()
    assert spi_readword(lan, BYTE_TEST) == BYTE_TEST_VALUE


# -- packets -----------------------------------------------------------------------

def test_lightbulb_packet_layout():
    frame = lightbulb_packet(True)
    assert (frame[OFF_ETHERTYPE] << 8 | frame[OFF_ETHERTYPE + 1]) == ETHERTYPE_IPV4
    assert frame[OFF_IP_PROTO] == 0x11
    assert frame[OFF_CMD] & 1 == 1
    assert lightbulb_packet(False)[OFF_CMD] & 1 == 0


def test_ip_checksum_folds():
    header = ipv4_header(8)
    total = 0
    for i in range(0, 20, 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF  # valid checksum sums to all-ones


def test_is_valid_command_spec():
    assert is_valid_command(lightbulb_packet(True)) is True
    assert is_valid_command(lightbulb_packet(False)) is False
    assert is_valid_command(truncated_packet()) is None
    assert is_valid_command(wrong_ethertype_packet()) is None
    assert is_valid_command(non_udp_packet()) is None
    assert is_valid_command(oversize_packet(2000)) is None


def test_adversarial_stream_is_deterministic():
    import random

    a = adversarial_stream(random.Random(7), 10)
    b = adversarial_stream(random.Random(7), 10)
    assert a == b
    assert len(a) == 10
