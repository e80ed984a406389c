"""The DES tier: every quoted time is measured packet-by-packet.

Each distinct message shape is executed once on a fresh simulated
Arctic/StarT-X cluster and memoized — a pairwise halo leg through
:func:`repro.parallel.des_collectives.des_exchange`, a global sum as
the (folded) Fig. 8 butterfly schedule through
:func:`repro.collectives.des_exec.des_time_schedule`, a barrier
likewise.  The GCM then advances virtual time
by packet-exact costs without re-simulating identical transfers every
step: a coupled run issues thousands of exchanges but only a handful of
distinct halo sizes.

Two cost terms the wire simulation deliberately does not model are
composed in from the same shared constants the analytic tier uses
(:mod:`repro.network.overheads`), so the tiers differ *only* in how the
wire legs are timed:

* the strided halo pack/unpack through the PII memory system
  (``2 * volume / COPY_BANDWIDTH``, Section 4.1);
* the mix-mode slave relay: the master repeats the measured pairwise
  exchange for its slave, plus the extra wire time of the slave's
  reduced VI bandwidth (``bw * SLAVE_BW_FACTOR``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.network.costmodel import CommCostModel, arctic_cost_model

from .base import CommBackend


class DESBackend(CommBackend):
    """Packet-exact costs, memoized per message shape."""

    name = "des"

    def __init__(self, model: Optional[CommCostModel] = None) -> None:
        self.model = model or arctic_cost_model()
        self._pair: Dict[int, float] = {}
        self._gsum: Dict[int, float] = {}
        #: DES runs actually executed (cache misses) and the engine
        #: events they dispatched — the tier's price in host-independent
        #: units, reported by :meth:`describe`.
        self.simulations = 0
        self.events = 0

    # ---- measured primitives --------------------------------------------

    def _cluster(self, n_nodes: int = 2):
        """A fresh cluster of the next power of two >= ``n_nodes``."""
        from repro.hardware.cluster import HyadesCluster, HyadesConfig

        self.simulations += 1
        return HyadesCluster(HyadesConfig(n_nodes=1 << (max(n_nodes, 2) - 1).bit_length()))

    def pair_time(self, nbytes: int) -> float:
        """Measured two-way VI exchange between one node pair (cached)."""
        nbytes = int(nbytes)
        t = self._pair.get(nbytes)
        if t is None:
            from repro.parallel.des_collectives import des_exchange

            cluster = self._cluster(2)
            t = des_exchange(cluster, 0, 1, nbytes)
            self.events += cluster.engine.events_executed
            self._pair[nbytes] = t
        return t

    def _gsum_wire(self, n_nodes: int) -> float:
        """Measured N-way butterfly global sum over the fabric (cached)."""
        t = self._gsum.get(n_nodes)
        if t is None:
            from repro.collectives import build, des_time_schedule

            cluster = self._cluster(n_nodes)
            t = des_time_schedule(cluster, build("allreduce", "butterfly", n_nodes, 8))
            self.events += cluster.engine.events_executed
            self._gsum[n_nodes] = t
        return t

    # ---- CommBackend ----------------------------------------------------

    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Measured wire legs plus the shared pack/relay composition.

        Degradation is composed closed-form on top of the *clean*
        measured legs (the memo cache holds healthy-fabric times), using
        the same shared formula as the other tiers — a regression test
        keeps it honest against a genuinely degraded live fabric.
        """
        # master relays the slave's exchange: same measured wire legs,
        # stretched by the reduced slave VI bandwidth
        t = self.model.compose_exchange(
            [int(s) for s in edge_bytes],
            mixmode,
            self.pair_time,
            lambda s: self.pair_time(s)
            + 2 * (s / self.model.bandwidth) * (1.0 / self.model.slave_bw_factor - 1.0),
        )
        return t + self._exchange_penalty(edge_bytes, node, now)

    def gsum_time(
        self,
        n_nodes: int,
        nbytes: int = 8,
        smp: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Measured butterfly global sum (folded beyond powers of two)."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if n_nodes == 1:
            return self.model.smp_local_cost if smp else 0.0
        t = self._gsum_wire(n_nodes)
        if smp:
            t += self.model.smp_local_cost
        return t + self._collective_penalty(n_nodes, nbytes, now)

    def describe(self) -> dict:
        """Adds simulation/event counts and memo sizes to the description."""
        d = super().describe()
        d["simulations"] = self.simulations
        d["events"] = self.events
        d["cached_shapes"] = {"pair": len(self._pair), "gsum": len(self._gsum)}
        return d
