"""Degradation schedules: the pricing view of performance faults.

A :class:`~repro.faults.plan.FaultPlan` says *what happens to the
machine* (link ``niu3^`` loses bandwidth, node 2's CPU runs 4x slower).
The timing layers need the dual view — *what does that do to a cost
quote* — and they need it identically everywhere, or the backend tiers
drift apart.  :class:`DegradationSchedule` is that shared view:

* the :class:`~repro.parallel.runtime.LockstepRuntime` asks
  :meth:`cpu_factor` when charging compute, so a degraded node's ranks
  genuinely fall behind in virtual time;
* every :class:`~repro.backend.CommBackend` tier asks :meth:`wire` /
  :meth:`worst_wire` and composes the same closed-form
  :meth:`WireDegradation.transfer_penalty` on top of its own clean
  quote — so des/analytic/hybrid price a degraded transfer consistently
  (their degraded quotes differ by exactly their clean-quote spread,
  which the cross-validation band already bounds);
* the coupled run asks :meth:`overlaps` at each window boundary, and
  the :class:`~repro.backend.hybrid.HybridBackend` opens a DES window
  for the degradation.

The packet-level ground truth of the wire events stays in
:mod:`repro.faults.inject`, which wires them into a live fabric
(``rate_factor``, ``latency_extra``, seeded per-packet jitter); a
regression test asserts the closed-form penalty tracks a genuinely
degraded DES link.  A CPU slowdown has no DES counterpart: it is
priced by :meth:`cpu_factor` alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Set

from repro.faults.plan import FaultPlan
from repro.network.packet import MAX_PAYLOAD_WORDS, WORD_BYTES

_NIU_RE = re.compile(r"niu(\d+)")

#: VI fragment payload (22 words x 4 bytes) — per-packet penalties
#: (latency, jitter) accumulate once per fragment of a bulk transfer.
FRAG_BYTES = MAX_PAYLOAD_WORDS * WORD_BYTES


@dataclass(frozen=True)
class WireDegradation:
    """Degraded-wire summary for one endpoint at one instant.

    ``bw_factor`` follows ``Link.rate_factor`` semantics (values below 1
    degrade); ``extra_latency`` and ``jitter_mean`` are seconds added
    per transfer (jitter priced at its expected value — the timing
    tiers quote deterministic costs, the DES injector samples).
    """

    bw_factor: float = 1.0
    extra_latency: float = 0.0
    jitter_mean: float = 0.0

    @property
    def clean(self) -> bool:
        return (
            self.bw_factor >= 1.0
            and self.extra_latency == 0.0
            and self.jitter_mean == 0.0
        )

    def transfer_penalty(
        self, nbytes: float, bandwidth: float, n_packets: int = 1
    ) -> float:
        """Extra seconds one ``nbytes`` one-direction transfer costs.

        The serialization term stretches by ``1/bw_factor``; the added
        latency accrues once per packet (the transmitter holds for it,
        so back-to-back fragments can't hide it); jitter is priced at
        its expectation, also per packet — but doubled, because jitter
        hooks install on *both* of a flaky node's link directions while
        a ``niu^`` bandwidth event degrades only the outbound one.  This
        is the ONE formula every backend tier composes on top of its
        clean quote — change it here or nowhere.
        """
        if self.clean:
            return 0.0
        stretch = max(1.0 / self.bw_factor - 1.0, 0.0)
        return (nbytes / bandwidth) * stretch + n_packets * (
            self.extra_latency + 2.0 * self.jitter_mean
        )


#: The no-op degradation, shared so hot paths can identity-check it.
CLEAN_WIRE = WireDegradation()


class DegradationSchedule:
    """Time-indexed per-node degradation view of a fault plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.slowdowns = tuple(plan.slowdowns)
        self.jitters = tuple(plan.jitters)
        # (node-or-None, start, end, factor, extra_latency): None applies
        # to every endpoint (a router-substring event degrades the core).
        self.link_events = tuple(
            (self._event_node(ev.link), ev.start, ev.start + ev.duration,
             ev.factor, ev.extra_latency)
            for ev in plan.degradations
        )

    @staticmethod
    def _event_node(link_key: str) -> Optional[int]:
        m = _NIU_RE.search(link_key)
        return int(m.group(1)) if m else None

    # -- point queries ---------------------------------------------------

    def cpu_factor(self, node: int, t: float) -> float:
        """CPU slowdown multiplier (>= 1) for ``node`` at time ``t``."""
        f = 1.0
        for ev in self.slowdowns:
            if ev.node == node and ev.start <= t < ev.start + ev.duration:
                f *= ev.factor
        return f

    def wire(self, node: int, t: float) -> WireDegradation:
        """Wire degradation governing ``node``'s transfers at ``t``."""
        bw, lat, jit = 1.0, 0.0, 0.0
        for ev_node, start, end, factor, extra in self.link_events:
            if (ev_node is None or ev_node == node) and start <= t < end:
                bw *= factor
                lat += extra
        for ev in self.jitters:
            if ev.node == node and ev.start <= t < ev.start + ev.duration:
                jit += ev.mean_delay
        if bw >= 1.0 and lat == 0.0 and jit == 0.0:
            return CLEAN_WIRE
        return WireDegradation(bw_factor=bw, extra_latency=lat, jitter_mean=jit)

    def worst_wire(self, t: float) -> WireDegradation:
        """The most degraded endpoint at ``t`` — the one that gates a
        collective (every butterfly round waits for the slowest link)."""
        worst = CLEAN_WIRE
        worst_penalty = 0.0
        for node in self._nodes_with_events():
            w = self.wire(node, t)
            # rank by penalty on a canonical 8-byte beacon
            p = w.transfer_penalty(8.0, 1.0e8)
            if p > worst_penalty:
                worst, worst_penalty = w, p
        return worst

    # -- backend composition helpers -------------------------------------

    def exchange_penalty(
        self,
        node: Optional[int],
        t: float,
        edge_bytes: Sequence[int],
        bandwidth: float,
    ) -> float:
        """Extra seconds ``node``'s two-way halo exchange costs at ``t``.

        Each positive edge moves ``s`` bytes in each direction as
        ``ceil(s / FRAG_BYTES)`` fragments; the per-packet terms are
        handled inside :meth:`WireDegradation.transfer_penalty`.  With
        ``node=None`` the worst degraded endpoint is assumed (a
        collective-ish bound for callers without placement info).
        """
        w = self.worst_wire(t) if node is None else self.wire(node, t)
        if w is CLEAN_WIRE or w.clean:
            return 0.0
        p = 0.0
        for s in edge_bytes:
            if s > 0:
                n_frag = max(1, math.ceil(s / FRAG_BYTES))
                p += w.transfer_penalty(s, bandwidth, n_packets=n_frag)
        return p

    def gsum_penalty(
        self, t: float, n_nodes: int, nbytes: float, bandwidth: float
    ) -> float:
        """Extra seconds an N-way butterfly all-reduce costs at ``t``.

        Every round of the butterfly waits for its slowest beacon, and a
        degraded participant is on the critical path of every round —
        so the worst endpoint's single-beacon penalty accrues once per
        round (``ceil(log2 N)``, matching the folded schedule).
        """
        if n_nodes < 2:
            return 0.0
        w = self.worst_wire(t)
        if w is CLEAN_WIRE or w.clean:
            return 0.0
        rounds = max(1, math.ceil(math.log2(n_nodes)))
        return rounds * w.transfer_penalty(nbytes, bandwidth, n_packets=1)

    # -- window queries --------------------------------------------------

    def overlaps(self, t0: float, t1: float) -> bool:
        """Any performance fault active during ``[t0, t1)``?"""
        for ev in self.slowdowns + self.jitters:
            if ev.start < t1 and t0 < ev.start + ev.duration:
                return True
        for _, start, end, _, _ in self.link_events:
            if start < t1 and t0 < end:
                return True
        return False

    def _nodes_with_events(self) -> Set[int]:
        nodes: Set[int] = set()
        for ev in self.jitters:
            nodes.add(ev.node)
        for node, *_ in self.link_events:
            if node is not None:
                nodes.add(node)
            else:
                nodes.add(-1)  # core event: probe a synthetic endpoint
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DegradationSchedule slowdowns={len(self.slowdowns)} "
            f"link_events={len(self.link_events)} jitters={len(self.jitters)}>"
        )
