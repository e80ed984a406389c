"""Analytic interconnect cost models.

These are the models the paper's performance analysis is built on
(Sections 4.1, 4.2, 5.4).  For the Arctic/StarT-X path the parameters are
*derived* from the hardware (8.6 us transfer negotiation = one PIO round
trip plus DMA setup; 110 MB/s streaming VI bandwidth; 0.7x slave relay
bandwidth in mix-mode; ~100 MB/s strided pack/unpack on the PII memory
system).  Notably, composing these primitives predicts the paper's
measured Fig. 11 exchange costs from first principles:

* atmosphere 3-D exchange (23040 B halo, mix-mode): 1616 us model vs
  1640 us measured (1.5 % off);
* ocean 3-D exchange (69120 B halo, mix-mode): 4572 us model vs 4573 us
  measured (0.02 % off);
* DS 2-D exchange on the 8 SMP masters: 117.7 us model vs 115 us
  measured (2.3 % off).

The Fast/Gigabit Ethernet models use a shared-medium functional form
(per-message MPI software overhead + total cluster volume over an
effective backplane bandwidth) with parameters calibrated so the three
stand-alone benchmark values of Fig. 12 are reproduced exactly — the
paper likewise *measures* these rather than deriving them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.network.overheads import (  # noqa: F401  (re-exported)
    ARCTIC_GSUM_OFFSET,
    ARCTIC_GSUM_SLOPE,
    COPY_BANDWIDTH,
    SLAVE_BW_FACTOR,
    SMP_LOCAL_COST,
    TRANSFER_BANDWIDTH,
    TRANSFER_OVERHEAD,
)

US = 1e-6
MB = 1e6

#: Paper Section 4.2 — measured Arctic global-sum latencies (seconds),
#: one CPU per node.
ARCTIC_GSUM_MEASURED: Mapping[int, float] = {
    2: 4.0 * US,
    4: 8.3 * US,
    8: 12.8 * US,
    16: 18.2 * US,
}

#: Paper Section 4.2 — measured 2xN-way (two CPUs per SMP) global sums,
#: keyed by the number of SMPs/masters.
ARCTIC_GSUM_SMP_MEASURED: Mapping[int, float] = {
    2: 4.8 * US,
    4: 9.1 * US,
    8: 13.5 * US,
    16: 19.5 * US,
}

# The least-squares gsum fit (tgsum = 4.67 log2 N - 0.95 us) lives in
# repro.network.overheads together with the per-round software costs the
# DES paths charge, so the analytic and packet-level calibrations cannot
# drift apart; ARCTIC_GSUM_SLOPE / ARCTIC_GSUM_OFFSET are re-exported
# above for backward compatibility.


@dataclass(frozen=True)
class CommCostModel:
    """Latency/bandwidth/overhead model of one interconnect.

    All times in seconds, sizes in bytes, bandwidths in bytes/second.
    """

    name: str
    #: One-time overhead to negotiate a block transfer between two nodes.
    transfer_overhead: float
    #: Streaming payload bandwidth of a block transfer.
    bandwidth: float
    #: Per-round cost of an N-way recursive-doubling global sum
    #: (tgsum = gsum_round * log2 N + gsum_offset), unless a measured
    #: table overrides it.
    gsum_round: float
    gsum_offset: float = 0.0
    #: Measured global-sum tables (override the linear fit when present).
    gsum_measured: Mapping[int, float] = field(default_factory=dict)
    gsum_smp_measured: Mapping[int, float] = field(default_factory=dict)
    #: Added latency of the intra-SMP shared-memory combine (Section 4.2).
    smp_local_cost: float = 0.0
    #: Slave relay bandwidth factor in mix-mode (Section 4.1: "about 30%
    #: lower"); None disables the slave path entirely.
    slave_bw_factor: Optional[float] = None
    #: Strided pack/unpack (halo gather/scatter) memory bandwidth; None
    #: means pack cost is not modelled for this interconnect (folded into
    #: the calibrated parameters instead).
    copy_bandwidth: Optional[float] = None
    #: True for a shared medium: exchange cost scales with the *total*
    #: volume injected by all ranks, not the per-rank volume.
    shared_medium: bool = False
    #: Per-message wire latency surcharge (hops x stage latency) the
    #: topology layer adds for machines whose fabric transit is not
    #: already folded into the calibrated ``transfer_overhead``.
    hop_latency: float = 0.0

    # ---- point-to-point -------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        """One-direction block transfer between two nodes."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.transfer_overhead + self.hop_latency + nbytes / self.bandwidth

    def perceived_bandwidth(self, nbytes: int) -> float:
        """Effective bytes/s of a single transfer of ``nbytes`` (Fig. 7)."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.transfer_time(nbytes)

    # ---- exchange (Section 4.1) -----------------------------------------

    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
    ) -> float:
        """Time for one halo exchange by a node.

        ``edge_bytes[i]`` is the message size to/from neighbour ``i``.
        Each neighbour pair runs two sequential one-direction transfers
        (a single transfer saturates the PCI bus, Section 4.1).  In
        ``mixmode`` the SMP master first performs its own exchange and
        then relays the slave's at the reduced slave bandwidth, and the
        strided pack/unpack of halo data through the memory system is
        charged at ``copy_bandwidth``.

        For a ``shared_medium`` interconnect the per-rank volume is
        multiplied by ``n_ranks`` (every rank's traffic crosses the same
        backplane).
        """
        overhead = self.transfer_overhead + self.hop_latency
        if self.shared_medium:
            t = 0.0
            for s in edge_bytes:
                if s > 0:
                    t += 2 * (overhead + s * n_ranks / self.bandwidth)
            return t
        return self.compose_exchange(
            edge_bytes,
            mixmode,
            lambda s: 2 * (overhead + s / self.bandwidth),
            lambda s: 2 * (overhead + s / (self.bandwidth * self.slave_bw_factor)),
        )

    def compose_exchange(self, edge_bytes: Sequence[int], mixmode: bool, leg, slave_leg) -> float:
        """The Section 4.1 composition around a tier's prices: ``leg(s)``
        per neighbour, in mix-mode the master's relay of the slave's
        exchange (``slave_leg(s)`` per neighbour, or everything twice
        when the slave path is not modelled), then the halo pack/unpack.
        The closed form and the DES tier share this flow, not the legs."""
        # zero-byte entries mark walls / self-wraps: no transfer happens
        edges = [s for s in edge_bytes if s > 0]
        t = 0.0
        for s in edges:
            t += leg(s)
        if mixmode:
            if self.slave_bw_factor is None:
                t *= 2.0  # master simply repeats the exchange for the slave
            else:
                for s in edges:
                    t += slave_leg(s)
        if self.copy_bandwidth is not None:
            # One pack + one unpack of the per-rank halo volume.  In
            # mix-mode the slave's pack overlaps the master's DMA (the
            # slave gathers its halo while the master's transfer is in
            # flight), so the copy term is charged once, not per rank —
            # this composition lands on the measured Fig. 11 values.
            t += 2 * sum(edges) / self.copy_bandwidth
        return t

    # ---- global sum (Section 4.2) ----------------------------------------

    def gsum_time(self, n_nodes: int, smp: bool = False) -> float:
        """N-way global sum latency; ``smp`` adds the 2xN mix-mode path."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if n_nodes == 1:
            return self.smp_local_cost if smp else 0.0
        table = self.gsum_smp_measured if smp else self.gsum_measured
        if n_nodes in table:
            return table[n_nodes]
        t = self.gsum_round * math.log2(n_nodes) + self.gsum_offset
        if smp:
            t += self.smp_local_cost
        return max(t, 0.0)

    def barrier_time(self, n_nodes: int) -> float:
        """A barrier costs the same rounds as a dataless global sum."""
        return self.gsum_time(n_nodes, smp=False)

    def messages_per_gsum(self, n_nodes: int) -> int:
        """Total messages of the butterfly: N log2 N (Section 4.2)."""
        if n_nodes < 2:
            return 0
        return n_nodes * int(math.log2(n_nodes))


def arctic_cost_model() -> CommCostModel:
    """The Hyades Arctic/StarT-X interconnect (first-principles)."""
    return CommCostModel(
        name="Arctic",
        transfer_overhead=TRANSFER_OVERHEAD,
        bandwidth=TRANSFER_BANDWIDTH,
        gsum_round=ARCTIC_GSUM_SLOPE,
        gsum_offset=ARCTIC_GSUM_OFFSET,
        gsum_measured=dict(ARCTIC_GSUM_MEASURED),
        gsum_smp_measured=dict(ARCTIC_GSUM_SMP_MEASURED),
        smp_local_cost=SMP_LOCAL_COST,
        slave_bw_factor=SLAVE_BW_FACTOR,
        copy_bandwidth=COPY_BANDWIDTH,
    )


def fast_ethernet_cost_model() -> CommCostModel:
    """Shared (collision-domain) Fast Ethernet + MPI, calibrated to Fig. 12.

    Functional form: per-message MPI/TCP software overhead plus the
    *cluster-wide* exchange volume over an effective shared backplane of
    7.92 MB/s — i.e. 100 Mb/s wire rate at ~63 % efficiency, the classic
    hub/collision regime.  Parameters are fitted so the stand-alone Fig. 12
    values (tgsum 942 us over 16 ranks, texchxy 10 008 us, texchxyz
    100 000 us at the reference 2.8125-degree configuration) are
    reproduced exactly; the paper likewise measures rather than derives
    these numbers.
    """
    return CommCostModel(
        name="Fast Ethernet",
        transfer_overhead=863.1 * US,
        bandwidth=7.9196 * MB,
        gsum_round=942.0 / 4 * US,  # MPI allreduce, 16 ranks -> 4 rounds
        shared_medium=True,
    )


def gigabit_ethernet_cost_model() -> CommCostModel:
    """Switched Gigabit Ethernet + MPI, calibrated to Fig. 12.

    Point-to-point (switched) functional form with 206.6 us per-message
    MPI/TCP overhead and 11.27 MB/s effective per-link bandwidth — the
    realistic delivered TCP throughput of a 1999 GE NIC behind a 32-bit
    33 MHz PCI bus with MPICH.  Reproduces Fig. 12's tgsum 1193 us,
    texchxy 1789 us and texchxyz 5742 us exactly at the reference
    configuration.
    """
    return CommCostModel(
        name="Gigabit Ethernet",
        transfer_overhead=206.6 * US,
        bandwidth=11.268 * MB,
        gsum_round=1193.0 / 4 * US,
    )
