"""Host PCI environment of a Hyades SMP node (paper Section 2.1).

The SMPs (Intel 82801AB-class chipsets) present a 32-bit 33-MHz PCI bus
whose measured characteristics directly govern interprocessor
communication performance.  Each is stated once, here, and read alike
by :class:`PCIBus`, the StarT-X and reliable NIUs and the closed-form
PIO costs of :data:`repro.niu.startx.PIO_COST_MODEL` (a test that needs
another machine monkeypatches the constant).
"""

from __future__ import annotations

from repro.sim import Engine, Resource

#: 8-byte uncached mmap *read* of a device register.
MMAP_READ_LATENCY = 0.93e-6
#: Minimum gap between back-to-back 8-byte mmap *writes*.
MMAP_WRITE_GAP = 0.18e-6
#: Sustained device DMA (the paper: "> 120 MB/s").
DMA_BANDWIDTH = 120e6
#: Theoretical 32-bit/33-MHz burst peak (132 MB/s).
PEAK_BANDWIDTH = 33e6 * 4


class PCIBus:
    """Arbitration + cost accounting for one node's PCI bus.

    CPU-side costs (mmap accesses) are returned as durations for the
    calling process to charge itself; DMA transfers acquire the bus
    resource so that a single bulk transfer saturates it (the reason the
    exchange primitive runs its two directions sequentially, Section 4.1).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._bus = Resource(engine, capacity=1)
        self.total_dma_bytes = 0
        self.total_mmap_reads = 0
        self.total_mmap_writes = 0

    # -- CPU-side programmed I/O costs -----------------------------------

    def mmap_read_cost(self) -> float:
        """Time for the CPU to read one 8-byte device register."""
        self.total_mmap_reads += 1
        return MMAP_READ_LATENCY

    def mmap_write_cost(self) -> float:
        """Time for the CPU to write one 8-byte device register."""
        self.total_mmap_writes += 1
        return MMAP_WRITE_GAP

    # -- device-side DMA ---------------------------------------------------

    def dma(self, nbytes: int):
        """Process: move ``nbytes`` across the bus by DMA (exclusive)."""
        yield self._bus.acquire()
        try:
            self.total_dma_bytes += nbytes
            yield self.engine.timeout(nbytes / DMA_BANDWIDTH)
        finally:
            self._bus.release()
