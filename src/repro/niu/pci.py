"""Host PCI environment of a Hyades SMP node (paper Section 2.1).

The SMPs (Intel 82801AB-class chipsets) present a 32-bit 33-MHz PCI bus
whose measured characteristics directly govern interprocessor
communication performance:

* sustained device DMA: > 120 MB/s,
* 8-byte uncached mmap *read* of a device register: 0.93 us,
* minimum gap between back-to-back 8-byte mmap *writes*: 0.18 us.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Engine, Resource


@dataclass(frozen=True)
class PCIParams:
    """Measured host I/O characteristics (Section 2.1)."""

    mmap_read_latency: float = 0.93e-6
    mmap_write_gap: float = 0.18e-6
    dma_bandwidth: float = 120e6
    bus_clock_hz: float = 33e6
    bus_width_bytes: int = 4

    @property
    def peak_bandwidth(self) -> float:
        """Theoretical 32-bit/33-MHz burst peak (132 MB/s)."""
        return self.bus_clock_hz * self.bus_width_bytes


class PCIBus:
    """Arbitration + cost accounting for one node's PCI bus.

    CPU-side costs (mmap accesses) are returned as durations for the
    calling process to charge itself; DMA transfers acquire the bus
    resource so that a single bulk transfer saturates it (the reason the
    exchange primitive runs its two directions sequentially, Section 4.1).
    """

    def __init__(self, engine: Engine, params: PCIParams | None = None) -> None:
        self.engine = engine
        self.params = params or PCIParams()
        self._bus = Resource(engine, capacity=1)
        self.total_dma_bytes = 0
        self.total_mmap_reads = 0
        self.total_mmap_writes = 0

    # -- CPU-side programmed I/O costs -----------------------------------

    def mmap_read_cost(self) -> float:
        """Time for the CPU to read one 8-byte device register."""
        self.total_mmap_reads += 1
        return self.params.mmap_read_latency

    def mmap_write_cost(self) -> float:
        """Time for the CPU to write one 8-byte device register."""
        self.total_mmap_writes += 1
        return self.params.mmap_write_gap

    # -- device-side DMA ---------------------------------------------------

    def dma(self, nbytes: int):
        """Process: move ``nbytes`` across the bus by DMA (exclusive)."""
        yield self._bus.acquire()
        try:
            self.total_dma_bytes += nbytes
            yield self.engine.timeout(nbytes / self.params.dma_bandwidth)
        finally:
            self._bus.release()
