"""The one VI request server per NIU, shared by everything that moves VI
transfers on a cluster (the raw wire of :mod:`repro.collectives.des_exec`)."""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.sim import Signal


class VIDemux:
    """Shared per-cluster VI request servers.

    Exactly one ``vi_serve_request`` consumer may run per NIU — two
    clients each running their own would steal each other's transfers —
    so the servers and their arrived-slab stash live on the cluster
    (a :class:`~repro.hardware.cluster.HyadesCluster`), shared by every
    client built on it.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.arrived: List[Dict[Tuple[int, int], bytes]] = [
            {} for _ in range(cluster.n_nodes)
        ]
        self.signals = [
            Signal(cluster.engine, name=f"vi-arrivals[rank{r}]")
            for r in range(cluster.n_nodes)
        ]
        self._started = [False] * cluster.n_nodes
        self._phases = itertools.cycle(range(1, 256))

    def next_phase(self) -> int:
        """A phase number for a raw communication phase's VI transfer
        ids (1..255, cycling): an NIU keeps every transfer id it has
        served, so back-to-back phases on one cluster must not share
        them."""
        return next(self._phases)

    @classmethod
    def of(cls, cluster) -> "VIDemux":
        """The demux of ``cluster``, created on first use."""
        demux = getattr(cluster, "_vi_demux", None)
        if demux is None:
            demux = cls(cluster)
            cluster._vi_demux = demux
        return demux

    def ensure_server(self, rank: int) -> None:
        """Start ``rank``'s VI request server unless it already runs."""
        if self._started[rank]:
            return
        self._started[rank] = True
        niu, arrived, signal = self.cluster.niu(rank), self.arrived[rank], self.signals[rank]

        def server():
            while True:
                xfer = yield from niu.vi_serve_request()
                xfer = yield from niu.vi_wait_complete(xfer.xid)
                # transfer id encodes (slot, round) in its low bits;
                # timing-only transfers carry no rider
                arrived[(xfer.src, xfer.xid & 0xFFF)] = (
                    b"" if xfer.data is None else bytes(xfer.data)
                )
                signal.fire()

        self.cluster.engine.process(
            server(), name=f"vi-server[rank{rank}]", daemon=True
        )

    def await_slab(self, rank: int, src: int, tag: int):
        """Process: block until the (src, tag) slab has landed."""
        arrived, signal, key = self.arrived[rank], self.signals[rank], (src, tag)
        while key not in arrived:
            yield signal.wait()
        return arrived.pop(key)
