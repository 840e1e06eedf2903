"""Device models: MMIO bus, GPIO (lightbulb switch), SPI peripheral,
LAN9250 Ethernet controller, and network-packet workloads (paper §3, §5.1)."""

from . import bus, gpio, lan9250, net, spi
from .bus import KamiWorldAdapter, MMIOBus
from .gpio import Gpio
from .lan9250 import Lan9250
from .spi import Spi

__all__ = ["bus", "gpio", "spi", "lan9250", "net",
           "MMIOBus", "KamiWorldAdapter", "Gpio", "Spi", "Lan9250"]
