"""SPMD execution with *real data* on the discrete-event cluster.

Everywhere else the split is: functional data movement in NumPy, timing
from cost models.  This module closes the last gap for validation: a
halo exchange in which every edge slab actually travels through the
simulated StarT-X NIUs and Arctic fat tree (bytes on the wire).  A
tiled computation run this way must produce arrays *identical* to the
functional :func:`repro.parallel.exchange.exchange_halos` — the
strongest end-to-end check that the NIU/fabric models preserve data.

The exchange is one :mod:`repro.collectives.des_exec` phase: the x-pass
slab round, a dissemination barrier's rounds (so corner data is
coherent before the y pass), the y-pass slab round, the barrier again.
The slabs are the copies of :func:`repro.parallel.exchange.copy_plans`,
taken when a rank reaches its round; a periodic self-wrap is a local
copy, never a message.  Two delivery modes are supported:

* the default **raw** mode ships slabs on the raw wire (PIO below 88 B,
  VI beyond, priced like every collective) and assumes the fabric is
  loss-free (the paper's Section 2.2 stance).  Under fault injection a
  lost packet stalls the exchange; the engine's deadlock watchdog then
  raises a diagnostic naming the blocked ranks instead of hanging
  forever.
* **reliable** mode routes every byte (slabs *and* the pass barrier)
  through :class:`repro.niu.reliable.ReliableNIU`, so seeded packet
  loss/corruption is recovered transparently — at a simulated-time cost
  that the DES charges honestly — and the exchange stays bit-exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.collectives.des_exec import (
    Phase,
    check_reliable_ranks,
    start_ranks,
    wire_rounds,
)
from repro.collectives.schedules import build
from repro.hardware.cluster import HyadesCluster
from repro.niu.demux import VIDemux
from repro.niu.reliable import ReliableMailbox, get_reliable
from repro.parallel.exchange import copy_plans
from repro.parallel.tiling import Decomposition


class DESExchanger:
    """Halo exchange whose bytes travel the simulated hardware.

    With ``reliable=True`` all traffic goes through the go-back-N
    reliable-delivery layer (surviving injected faults); the default
    raw mode matches the paper's error-free assumption.
    """

    def __init__(
        self,
        cluster: HyadesCluster,
        decomp: Decomposition,
        reliable: bool = False,
        recovery=None,
    ) -> None:
        if decomp.n_ranks > cluster.n_nodes:
            raise ValueError("decomposition needs more nodes than the cluster has")
        if recovery is not None and not reliable:
            raise ValueError(
                "crash recovery requires reliable=True: raw VI transfers "
                "cannot be epoch-fenced or re-routed to a spare node"
            )
        self.cluster = cluster
        self.decomp = decomp
        self.engine = cluster.engine
        self.reliable = reliable
        self._recovery = recovery
        self._round = 0
        if reliable:
            check_reliable_ranks(decomp.n_ranks)
            for r in range(decomp.n_ranks):
                get_reliable(cluster.niu(self._node_of(r)))
            # own channel: two exchangers sharing the cluster (e.g. the
            # two isomorphs of a coupled run) must not consume each
            # other's messages
            self._mailbox = ReliableMailbox(cluster, "halo")
        if recovery is not None:
            recovery.adopt(self)

    def _node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (identity without recovery)."""
        if self._recovery is not None:
            return self._recovery.rankmap.node_of(rank)
        return rank

    def abort_round(self) -> None:
        """Drop every stashed arrival of the aborted round (the crash
        recovery path calls this right after epoch-fencing the layers)."""
        self._mailbox.clear()

    def exchange(self, fields: Sequence[np.ndarray], width: Optional[int] = None) -> float:
        """Run one two-pass halo exchange on the DES; returns elapsed.

        ``fields[rank]`` are tile-local arrays (2-D or 3-D), modified in
        place exactly as :func:`exchange_halos` would; an out-of-range
        ``width`` raises as it does there, before any packet moves.

        Failure modes are structured, never silent: a retry-exhausted
        reliable flow raises :class:`repro.niu.reliable.DeliveryError`;
        a raw-mode exchange stalled by packet loss raises
        :class:`repro.sim.DeadlockError` naming the blocked ranks.
        """
        n = self.decomp.n_ranks
        w = self.decomp.olx if width is None else width
        tile_plan, _ = copy_plans(self.decomp, w)
        if w == 0:
            return 0.0
        start = self.engine.now
        self._round += 1
        barrier = wire_rounds(build("barrier", "dissemination", n, 0))
        rounds, slabs = [], []
        for copies in tile_plan:
            rounds.append((
                [src for _, _, src, _ in copies],
                [dst for dst, _, _, _ in copies],
                [fields[src][si].nbytes for _, _, src, si in copies],
            ))
            rounds += barrier
            slabs += copies + [None] * sum(len(src) for src, _, _ in barrier)

        def payload(j):
            if slabs[j] is not None:
                _, _, src, si = slabs[j]
                return fields[src][si].tobytes()

        def absorb(j, data):
            if slabs[j] is not None:
                dst, di, _, _ = slabs[j]
                view = fields[dst][di]
                view[...] = np.frombuffer(data, view.dtype).reshape(view.shape)

        phase = Phase("halo", rounds, payload, absorb)
        if self.reliable:
            procs, done = start_ranks(
                self.cluster, phase, n, self._mailbox, self._round, self._node_of
            )
        else:
            seq = VIDemux.of(self.cluster).next_phase()
            procs, done = start_ranks(self.cluster, phase, n, seq=seq)
        mgr = self._recovery
        if mgr is None:
            self.engine.run(watchdog=True)
        else:
            # Heartbeat daemons keep the event heap alive forever, so a
            # recovery-armed exchange stops on its completion condition
            # (or on a declared failure) rather than on quiescence.
            mgr.watch(procs)
            mgr.run_phase_guarded(done, label="DES exchange")
        if None in done:
            stuck = [r for r, d in enumerate(done) if d is None]
            raise RuntimeError(f"DES exchange failed on ranks {stuck}")
        return self.engine.now - start

    def reliability_stats(self) -> dict:
        """Aggregated reliable-layer counters across this exchanger's
        ranks (empty in raw mode)."""
        if not self.reliable:
            return {}
        totals: dict = {}
        layers = {
            get_reliable(self.cluster.niu(self._node_of(r)))
            for r in range(self.decomp.n_ranks)
        }
        for rn in layers:
            for key, val in rn.stats().items():
                totals[key] = totals.get(key, 0) + val
        return totals
