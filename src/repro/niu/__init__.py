"""The StarT-X PCI network interface unit (paper Section 2.3).

StarT-X exposes message passing implemented *entirely in hardware* (no
embedded processor), so peak performance is attained predictably.  Two of
its mechanisms are used by the GCM code and modelled here:

* **PIO mode** — a FIFO network abstraction (CM-5 style): the CPU writes
  header+payload directly to memory-mapped NIU registers.  Costs are
  governed by the host PCI bridge: 0.93 us per uncached 8-byte mmap read,
  0.18 us between back-to-back 8-byte writes (Section 2.1), which
  reproduces the LogP table of Fig. 2.
* **VI mode** — cacheable virtual queues extended into host memory by DMA
  engines; peak payload bandwidth 110 MB/s, used by the exchange
  primitive for bulk halo transfers.  A transfer is negotiated between
  the two nodes by a high-priority PIO round trip (the 8.6 us one-time
  overhead of Section 4.1), then streamed as max-size packets.
"""

from repro.niu.pci import PCIBus
from repro.niu.startx import StarTX, VITransfer, PIO_COST_MODEL
from repro.niu.reliable import DeliveryError, Message, ReliableNIU, get_reliable

__all__ = [
    "PCIBus",
    "StarTX",
    "VITransfer",
    "PIO_COST_MODEL",
    "DeliveryError",
    "Message",
    "ReliableNIU",
    "get_reliable",
]
