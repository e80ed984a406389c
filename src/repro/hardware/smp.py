"""A two-way SMP processing node (paper Section 2.1).

Each node holds two 400-MHz Intel PII processors and 512 MB of 100-MHz
SDRAM behind an 82801AB-class chipset.  For mix-mode communication
(Sections 4.1-4.2) one CPU per SMP is the *communication master* that
owns the NIU; the slave posts remote requests through shared-memory
semaphores.  The measurable consequences modelled here:

* the intra-SMP combine adds about 1 us to a global sum,
* slave-to-slave exchange bandwidth is about 30 % below master-to-master,
* strided halo pack/unpack moves through the memory system at about
  100 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.overheads import COPY_BANDWIDTH, SLAVE_BW_FACTOR
from repro.sim import Engine, Signal
from repro.niu.startx import StarTX


@dataclass(frozen=True)
class SMPParams:
    """Node hardware parameters."""

    cpus_per_node: int = 2
    cpu_mhz: float = 400.0
    memory_mb: int = 512
    #: One shared-memory semaphore operation (lock/post).
    semaphore_cost: float = 0.5e-6
    #: Strided copy bandwidth of the memory system (halo pack/unpack).
    memcpy_bandwidth: float = COPY_BANDWIDTH
    #: Mix-mode slave relay bandwidth factor (Section 4.1: ~30 % lower).
    slave_bw_factor: float = SLAVE_BW_FACTOR

    @property
    def smp_gsum_overhead(self) -> float:
        """Extra latency of the local combine in a 2xN global sum.

        Section 4.2: "The local summing operation adds about 1 usec".
        Two semaphore operations (slave posts its datum, master posts the
        result back) give the ~1 us the paper measures.
        """
        return 2 * self.semaphore_cost


class SMPNode:
    """One Hyades node: two CPUs sharing memory and a single NIU."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        niu: StarTX,
        params: Optional[SMPParams] = None,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.niu = niu
        self.params = params or SMPParams()
        # master CPU is local index 0 by convention
        self.master_cpu = 0
        self._mailbox = Signal(engine)

    def cpu_rank(self, local_cpu: int) -> int:
        """Global CPU rank of local CPU ``local_cpu`` on this node."""
        k = self.params.cpus_per_node
        if not (0 <= local_cpu < k):
            raise ValueError(f"local cpu {local_cpu} out of range 0..{k - 1}")
        return self.node_id * k + local_cpu

    def semaphore_op(self):
        """Process: one shared-memory semaphore operation."""
        yield self.engine.timeout(self.params.semaphore_cost)

    def pack_cost(self, nbytes: int) -> float:
        """Time to gather/scatter ``nbytes`` of strided halo data."""
        return nbytes / self.params.memcpy_bandwidth
