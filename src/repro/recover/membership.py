"""Cluster membership and heartbeat-based failure detection.

The paper's cluster has no failure detection at all — a crashed node
simply stops answering, and every collective that touches it wedges.
This module adds the classic fail-stop detector: every participating
node runs

* a **beacon** daemon that periodically PIO-sends a tiny liveness
  packet to every other participant on the HIGH-priority network (so
  beacons can never be blocked behind bulk halo traffic), and
* a **detector** daemon that scans the freshness of the beacons it has
  heard; a peer silent for longer than the timeout is *declared dead*.

Both daemons are ordinary DES processes: the beacon's CPU cost (mmap
register writes) and wire cost (serialization, link contention) are
charged through the existing StarT-X/Arctic cost models, so the
steady-state overhead of running detection is measurable in virtual
time (see ``benchmarks/bench_recovery_overhead.py``).

Detection latency is bounded by ``timeout + period``: a node that
crashes at ``t`` sent its last beacon at or before ``t``, and the first
detector scan after ``t + timeout`` declares it.  Declarations are
funnelled through :class:`Membership`, which keeps the authoritative
alive-set and notifies listeners (the :class:`~repro.recover.manager.
RecoveryManager`) exactly once per death.

A bare silence timeout conflates *slow* with *dead* on a degraded
machine, so the verdict is adaptive, phi-accrual style (Hayashibara et
al. 2004): each observer learns the distribution of its peers' beacon
inter-arrival times and turns current silence into a suspicion level
``phi = -log10 P(silence this long | peer alive)``.  Crossing
``PHI_SUSPECT`` marks the peer *suspected*, which never triggers
recovery (the fault campaign audits exactly that); a declaration
additionally requires ``phi >= PHI_DEAD`` **and** silence beyond
``K_DEAD`` learned mean intervals — so a merely-degraded peer whose
beacons stretched 4x is suspected but not evicted, while a truly dead
one is still declared within the ``timeout + period`` bound.  Until
``PHI_MIN_SAMPLES`` intervals are learned the fixed ``timeout`` applies
(warmup).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.network.packet import Priority

if TYPE_CHECKING:
    from repro.hardware.cluster import HyadesCluster

#: Liveness beacons, just below the reliable-delivery tags (0x7FA..0x7FC).
TAG_HEARTBEAT = 0x7F9


class NodeFailure(RuntimeError):
    """A participating node was declared dead by the failure detector.

    Structured context for the recovery path: which node, which ranks
    it hosted, when it was declared and by whom — and, when the fabric
    knows the ground truth (a :class:`~repro.faults.plan.CrashEvent`),
    the true crash time, so detection latency can be reported honestly.
    """

    def __init__(
        self,
        node: int,
        ranks: list[int],
        declared_at: float,
        declared_by: Optional[int] = None,
        crashed_at: Optional[float] = None,
        reason: str = "missed heartbeats",
    ) -> None:
        self.node = node
        self.ranks = list(ranks)
        self.declared_at = declared_at
        self.declared_by = declared_by
        self.crashed_at = crashed_at
        self.reason = reason
        where = f"hosting ranks {self.ranks}" if self.ranks else "hosting no ranks"
        latency = (
            f"; detection latency {declared_at - crashed_at:.3e} s"
            if crashed_at is not None
            else ""
        )
        super().__init__(
            f"node {node} ({where}) declared dead at t={declared_at:.6g} s "
            f"by node {declared_by} ({reason}){latency}"
        )

    @property
    def detection_latency(self) -> Optional[float]:
        """Seconds from true crash to declaration (None if unknown)."""
        if self.crashed_at is None:
            return None
        return self.declared_at - self.crashed_at


class UnrecoverableError(RuntimeError):
    """The failure cannot be repaired (e.g. spare pool exhausted).

    The structured end of the line: overlapping crashes that consume a
    rank's node *and* its replacement surface here, never as a hang.
    """


@dataclass
class FailureRecord:
    """One declared death, as seen by the survivors."""

    node: int
    declared_at: float
    declared_by: Optional[int]
    crashed_at: Optional[float]
    reason: str


class Membership:
    """Authoritative alive-set over the participating nodes.

    Tracks two kinds of death separately:

    * ``crashed`` — *physical* death (the fabric killed the endpoint).
      The simulator knows this instantly; the survivors do **not**: it
      only stops the dead node's own daemons, modelling fail-stop.
    * ``dead`` — *declared* death: a survivor's detector timed the node
      out.  Only declarations trigger recovery.
    """

    def __init__(self, participants: list[int]) -> None:
        if not participants:
            raise ValueError("membership needs at least one participant")
        self.participants = sorted(set(participants))
        self.crashed: dict[int, float] = {}
        self.dead: dict[int, FailureRecord] = {}
        #: Called with each fresh :class:`FailureRecord`, once per node.
        self.on_declared: list[Callable[[FailureRecord], None]] = []

    def is_live(self, node: int) -> bool:
        """Neither physically crashed nor declared dead."""
        return node not in self.crashed and node not in self.dead

    def mark_crashed(self, node: int, when: float) -> None:
        """Record a physical death (fabric callback).  Idempotent."""
        self.crashed.setdefault(node, when)

    def declare_dead(
        self, node: int, by: Optional[int], when: float, reason: str
    ) -> Optional[FailureRecord]:
        """Declare ``node`` dead; returns the record, or None if it was
        already declared (declarations are idempotent — several
        detectors typically time a node out at the same scan)."""
        if node in self.dead:
            return None
        record = FailureRecord(
            node=node,
            declared_at=when,
            declared_by=by,
            crashed_at=self.crashed.get(node),
            reason=reason,
        )
        self.dead[node] = record
        for listener in list(self.on_declared):
            listener(record)
        return record


#: Peer states reported by :meth:`PhiAccrualDetector.state`.
PEER_ALIVE = "alive"
PEER_SUSPECT = "suspect"
PEER_DEAD = "dead"


# Tuning of the adaptive phi-accrual detector.  ``phi = p`` means "the
# chance a live peer stays silent this long is 10^-p".  PHI_SUSPECT
# trips early (a verdict only, never acted on); a *declaration* requires
# both PHI_DEAD and silence beyond K_DEAD learned mean intervals — the
# belt-and-braces pair that keeps a 4x-degraded peer (phi rises fast
# once the learned std is small) from being evicted while it is
# demonstrably still beaconing.  These values keep declaration latency
# at ~``K_DEAD * period`` on a healthy history, inside the ``timeout +
# period`` bound.

#: Inter-arrival samples learned per peer (a sliding window, >= 2).
PHI_WINDOW = 32
#: Learned intervals before phi replaces the fixed timeout (>= 2).
PHI_MIN_SAMPLES = 4
PHI_SUSPECT = 2.0
PHI_DEAD = 9.0
K_DEAD = 5.0
#: Std-deviation floor as a fraction of the learned mean: beacons on
#: a quiet simulated fabric arrive nearly metronomically, and a zero std
#: would make phi explode on the first microsecond of skew.
MIN_STD_FRACTION = 0.1


class PhiAccrualDetector:
    """Per-observer adaptive suspicion over beacon inter-arrival times.

    One instance per observing node.  :meth:`heard` feeds it each
    inbound beacon; :meth:`state` classifies a peer as alive, suspected
    (slow) or dead given the current silence.  Pure bookkeeping — no
    engine, no I/O — so the campaign can also drive it with synthetic
    beacon streams to audit false-positive behaviour deterministically.
    """

    def __init__(self) -> None:
        self._intervals: Dict[int, Deque[float]] = {}
        self._last: Dict[int, float] = {}

    def heard(self, peer: int, now: float) -> None:
        """Record a beacon from ``peer`` at virtual time ``now``."""
        last = self._last.get(peer)
        if last is not None and now > last:
            self._intervals.setdefault(peer, deque(maxlen=PHI_WINDOW)).append(
                now - last
            )
        self._last[peer] = now

    def samples(self, peer: int) -> int:
        """Learned inter-arrival samples for ``peer``."""
        return len(self._intervals.get(peer, ()))

    def mean_interval(self, peer: int) -> Optional[float]:
        """Learned mean beacon interval (None before any sample)."""
        window = self._intervals.get(peer)
        if not window:
            return None
        return sum(window) / len(window)

    def phi(self, peer: int, now: float) -> float:
        """Suspicion level for ``peer``: ``-log10 P(silence | alive)``.

        Gaussian tail over the learned inter-arrival distribution, std
        floored at ``MIN_STD_FRACTION`` of the mean.  Returns 0 while
        there is no history (warmup uses the fixed timeout instead).
        """
        window = self._intervals.get(peer)
        last = self._last.get(peer)
        if not window or last is None:
            return 0.0
        silence = now - last
        if silence <= 0:
            return 0.0
        mean = sum(window) / len(window)
        var = sum((x - mean) ** 2 for x in window) / len(window)
        std = max(math.sqrt(var), MIN_STD_FRACTION * mean)
        z = (silence - mean) / std
        if z <= 0:
            return 0.0
        # P(X > silence) for a Gaussian; erfc keeps precision far into
        # the tail, then clamp where even erfc underflows.
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
        if p <= 0.0:
            return float("inf")
        return -math.log10(p)

    def state(self, peer: int, now: float, fixed_timeout: float) -> str:
        """Classify ``peer``: PEER_ALIVE / PEER_SUSPECT / PEER_DEAD.

        ``fixed_timeout`` is the warmup fallback: before
        ``PHI_MIN_SAMPLES`` intervals are learned the classic silence
        test applies.
        """
        last = self._last.get(peer)
        silence = None if last is None else now - last
        if self.samples(peer) < PHI_MIN_SAMPLES:
            if silence is not None and silence > fixed_timeout:
                return PEER_DEAD
            return PEER_ALIVE
        p = self.phi(peer, now)
        mean = self.mean_interval(peer) or fixed_timeout
        if p >= PHI_DEAD and silence is not None and silence > K_DEAD * mean:
            return PEER_DEAD
        if p >= PHI_SUSPECT:
            return PEER_SUSPECT
        return PEER_ALIVE


@dataclass(frozen=True)
class HeartbeatConfig:
    """Timing of the liveness protocol.

    Defaults are scaled to the paper's network: a beacon costs ~0.54 us
    of CPU (2-word PIO send) and ~0.2 us of wire per peer, so a 50-us
    period keeps the steady-state tax well under 1 % of each CPU while
    bounding detection latency at ``timeout + period`` = 300 us — small
    next to the multi-millisecond coupling windows it protects.

    ``timeout`` is load-bearing as the phi detector's warmup fallback
    (see :class:`PhiAccrualDetector`) — and on a healthy beacon history
    ``K_DEAD * period`` keeps phi declarations inside the documented
    ``timeout + period`` latency bound.
    """

    period: float = 50e-6
    timeout: float = 250e-6

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.timeout < 2 * self.period:
            raise ValueError(
                f"timeout {self.timeout} must be at least twice the period "
                f"{self.period} or every beacon jitter declares a death"
            )


class HeartbeatService:
    """Beacon + detector daemons for every participant node.

    ``arm()`` wraps each participant NIU's receive hook to timestamp
    inbound beacons (chaining to the reliable layer's hook, which must
    already be installed), then starts the daemons.  All daemons stop
    themselves once their node leaves the live set, so a crashed or
    excommunicated node falls silent — fail-stop, enforced.
    """

    def __init__(
        self,
        cluster: "HyadesCluster",
        membership: Membership,
        config: Optional[HeartbeatConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.membership = membership
        self.config = config or HeartbeatConfig()
        self.armed = False
        self.armed_at = 0.0
        #: last_seen[observer][peer] -> virtual time of last beacon heard.
        self.last_seen: dict[int, dict[int, float]] = {}
        self.beacons_sent = 0
        self.beacons_heard = 0
        #: Per-observer adaptive detectors.
        self.detectors: dict[int, PhiAccrualDetector] = {}

    def arm(self) -> None:
        """Install hooks and start the daemons (idempotent)."""
        if self.armed:
            return
        self.armed = True
        self.armed_at = self.engine.now
        for node in self.membership.participants:
            self.last_seen[node] = {}
            self.detectors[node] = PhiAccrualDetector()
            self._wrap_hook(node)
        for node in self.membership.participants:
            self.engine.process(
                self._beacon(node), name=f"hb-beacon[node{node}]", daemon=True
            )
            self.engine.process(
                self._detector(node), name=f"hb-detector[node{node}]", daemon=True
            )

    # -- receive path ----------------------------------------------------

    def _wrap_hook(self, node: int) -> None:
        niu = self.cluster.niu(node)
        prev = niu.rx_hook

        def hook(pkt, node=node, prev=prev):
            if pkt.tag == TAG_HEARTBEAT:
                self.beacons_heard += 1
                self.last_seen[node][pkt.src] = self.engine.now
                self.detectors[node].heard(pkt.src, self.engine.now)
                return True
            return prev(pkt) if prev is not None else False

        niu.rx_hook = hook

    # -- daemons ---------------------------------------------------------

    def _stagger(self, node: int) -> float:
        """Deterministic start offset so the beacons of N nodes do not
        all hit the fabric at the same instant every period."""
        n = max(len(self.membership.participants), 1)
        idx = self.membership.participants.index(node)
        return self.config.period * idx / n

    def _beacon(self, node: int):
        niu = self.cluster.niu(node)
        yield self.engine.timeout(self._stagger(node))
        while self.membership.is_live(node):
            for peer in self.membership.participants:
                # Skip only *declared* deaths: a survivor cannot know a
                # peer crashed until its detector times the peer out
                # (beacons to an undetected corpse simply blackhole).
                if peer == node or peer in self.membership.dead:
                    continue
                yield from niu.pio_send(
                    peer,
                    [node, len(self.membership.dead)],
                    tag=TAG_HEARTBEAT,
                    priority=Priority.HIGH,
                )
                self.beacons_sent += 1
            yield self.engine.timeout(self.config.period)

    def _detector(self, node: int):
        # First scan a full timeout after arming: peers get one grace
        # window to be heard before anyone can be suspected.
        yield self.engine.timeout(self.config.timeout + self._stagger(node))
        while self.membership.is_live(node):
            now = self.engine.now
            for peer in self.membership.participants:
                # Only declared deaths are skipped — the detector's whole
                # job is noticing peers that are silently (physically)
                # gone, so ground-truth ``crashed`` must not be consulted.
                if peer == node or peer in self.membership.dead:
                    continue
                self._classify(node, peer, now)
            yield self.engine.timeout(self.config.period)

    def _classify(self, node: int, peer: int, now: float) -> None:
        """One observer's verdict on one peer at one scan: a dead peer is
        declared; a suspected one is left alone."""
        last = self.last_seen[node].get(peer, self.armed_at)
        silent = now - last
        det = self.detectors[node]
        if det.state(peer, now, self.config.timeout) == PEER_DEAD:
            phi = det.phi(peer, now)
            self.membership.declare_dead(
                peer,
                by=node,
                when=now,
                reason=(
                    f"no heartbeat for {silent:.3e} s "
                    f"(phi={phi:.1f}, learned mean interval "
                    f"{det.mean_interval(peer) or self.config.timeout:.3e} s)"
                ),
            )
