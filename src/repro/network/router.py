"""Arctic router and link models (paper Section 2.2).

The Arctic Switch Fabric is packet-switched with cut-through forwarding:

* latency through a router stage (router + wire) is 0.15 us,
* each link carries 150 MByte/s in each direction,
* two priorities; HIGH can never be blocked behind LOW,
* per-path FIFO ordering,
* CRC verified at every router stage; corrupted packets are dropped and
  counted (software sees the 1-bit status at the endpoint).

A :class:`Link` models one direction of a physical link: packets queue on
a priority heap, serialize at the link bandwidth, and the *head* of the
packet arrives at the far side one stage latency after transmission
starts (cut-through: the downstream hop forwards without waiting for the
tail, so end-to-end latency is ``hops * stage + wire_bytes / bandwidth``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import trace as obs_trace
from repro.sim import Engine
from repro.network.packet import Packet, Priority

#: Paper Section 2.2 hardware constants.
ARCTIC_LINK_BANDWIDTH = 150e6  # bytes/sec, each direction
ARCTIC_STAGE_LATENCY = 0.15e-6  # seconds through one router stage


#: Verdicts a link fault hook may return for a packet about to transmit.
FAULT_DELIVER = None
FAULT_DROP = "drop"
FAULT_CORRUPT = "corrupt"


@dataclass
class LinkStats:
    """Per-link counters for utilisation and error accounting."""

    packets: int = 0
    bytes: int = 0
    busy_time: float = 0.0
    high_priority_packets: int = 0
    #: Packets silently lost on this link (fault injection).
    dropped: int = 0
    #: Packets whose payload was corrupted on this link (fault injection);
    #: the next CRC stage detects and drops them.
    corrupted: int = 0


class Link:
    """One direction of an Arctic link: FIFO per priority, cut-through.

    Fault injection attaches through two sanctioned hooks rather than
    monkeypatching: ``fault_hook(pkt)`` is consulted once per packet at
    transmit time and may return :data:`FAULT_DROP` (the packet vanishes
    on the wire) or :data:`FAULT_CORRUPT` (a bit flip the next CRC stage
    will catch); ``rate_factor`` scales the effective bandwidth to model
    transient link degradation, ``latency_extra`` adds a fixed per-packet
    forwarding delay (degraded-wire latency), ``delay_hook(pkt)`` returns
    an additional per-packet delay in seconds (seeded NIC jitter), and
    :meth:`stall` blocks the transmitter outright for a window of
    virtual time.

    The link is a lazy callback state machine, not a process.  A packet
    that reaches an idle wire goes on it inside :meth:`send`; the link
    then remembers only when the tail will have left (``_free_at``) and
    the place reserved at the end of that instant
    (``Engine.late_ticket``).  The tail-off event :meth:`_tx_done` is
    scheduled there only once it has work — a packet arrived before or
    exactly as the tail leaves and parked on the priority heap, or a
    drain left packets parked — and runs last in its instant, because
    the next packet of a back-to-back stream arrives exactly as the tail
    leaves and must be seen by the arbitration.  Packets handed over
    before the engine has dispatched anything all park, and one start
    event pops the heap: a batch injected at set-up is arbitrated as a
    whole.  Per packet-hop that is one engine event (head downstream),
    two when backlogged (and tail gone).
    """

    def __init__(
        self,
        engine: Engine,
        sink: Callable[[Packet], None],
        bandwidth: float = ARCTIC_LINK_BANDWIDTH,
        stage_latency: float = ARCTIC_STAGE_LATENCY,
        name: str = "link",
    ) -> None:
        self.engine = engine
        self.sink = sink
        self.bandwidth = bandwidth
        self.stage_latency = stage_latency
        self.name = name
        self.stats = LinkStats()
        self.fault_hook: Optional[Callable[[Packet], Optional[str]]] = None
        self.rate_factor: float = 1.0
        self.latency_extra: float = 0.0
        self.delay_hook: Optional[Callable[[Packet], float]] = None
        self._stalled_until: float = 0.0
        #: (priority, arrival number, packet) waiting behind the wire.
        self._waiting: list[tuple[int, int, Packet]] = []
        self._arrivals = 0
        #: True while an engine event of this link is outstanding (start,
        #: tail-off, stall retry) — forever, once the link is dead.
        self._pending = False
        #: when the last tail leaves the wire, and the ticket for then.
        self._free_at = -math.inf
        self._ticket = 0
        #: the engine's event count when the link was built; see ``send``.
        self._built_at = engine.events_executed

    def send(self, packet: Packet) -> None:
        """Enqueue a packet for transmission (HIGH priority jumps LOW)."""
        engine = self.engine
        now = engine.now
        # a tie with the tail parks too, to be arbitrated last in the
        # instant — unless the engine stands settled and the instant is over
        park = (
            self._pending
            or now < self._free_at
            or (now == self._free_at and not engine.settled)
            or engine.events_executed == self._built_at
        )
        if park:
            self._arrivals += 1
            heapq.heappush(
                self._waiting, (int(packet.priority), self._arrivals, packet)
            )
            if not self._pending:
                self._pending = True
                if now <= self._free_at:
                    engine.schedule_at(self._free_at, self._tx_done, ticket=self._ticket)
                else:
                    # handed over before the engine ran: one start event
                    # arbitrates the whole batch, so a HIGH packet injected
                    # behind LOW ones at set-up does not wait for the first
                    engine.schedule(0.0, self._tx_done)
        tr = obs_trace.TRACER
        if tr is not None:
            tr.counter(
                "fabric", f"q:{self.name}", now, {"queued": len(self._waiting)},
            )
        if not park:
            if now < self._stalled_until:
                self._pending = True
                engine.schedule(0.0, self._transmit, packet)
            else:
                self._transmit(packet)

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def stall(self, duration: float) -> None:
        """Block the transmitter for ``duration`` seconds of virtual time.

        Queued and newly arriving packets wait; nothing is lost.  Models
        a node or link that temporarily stops making progress.
        """
        self._stalled_until = max(self._stalled_until, self.engine.now + duration)

    def _tx_done(self) -> None:
        """The tail left the wire: start on the next packet or fall idle."""
        if self._waiting:
            self._transmit(heapq.heappop(self._waiting)[2])
        else:
            self._pending = False

    def _transmit(self, pkt: Packet) -> None:
        """Put ``pkt`` on the wire now (or after the stall it runs into)."""
        engine = self.engine
        now = engine.now
        if now < self._stalled_until:
            if self._stalled_until == float("inf"):
                self.stats.dropped += 1
                return  # link is dead: stays pending, later sends only queue
            engine.schedule(self._stalled_until - now, self._transmit, pkt)
            return
        tr = obs_trace.TRACER
        if tr is not None:
            tr.counter(
                "fabric", f"q:{self.name}", now, {"queued": len(self._waiting)},
            )
        stats = self.stats
        verdict = self.fault_hook(pkt) if self.fault_hook is not None else None
        if verdict in (FAULT_DROP, FAULT_CORRUPT):
            if tr is not None:
                tr.instant(
                    "fabric", self.name, verdict, now,
                    cat="fault", args=obs_trace.emit_arg_packet(pkt),
                )
            if verdict == FAULT_DROP:
                stats.dropped += 1
                self._pending = True
                engine.schedule(0.0, self._tx_done)
                return
            pkt.corrupt = True
            stats.corrupted += 1
        wire_bytes = pkt.wire_bytes
        t_ser = wire_bytes / (self.bandwidth * max(self.rate_factor, 1e-9))
        stats.packets += 1
        stats.bytes += wire_bytes
        stats.busy_time += t_ser
        if pkt.priority == Priority.HIGH:
            stats.high_priority_packets += 1
        if tr is not None:
            tr.complete(
                "fabric", self.name, f"{pkt.src}->{pkt.dst}", now, now + t_ser,
                cat="link", args=obs_trace.emit_arg_packet(pkt),
            )
        # Cut-through: head reaches the far side after the stage
        # latency while the tail is still serializing here.  Degraded
        # wires add a fixed latency_extra; a flaky NIC adds a seeded
        # per-packet delay via delay_hook.  Both delay the head AND
        # hold the transmitter, so back-to-back packets can't overtake.
        t_delay = self.latency_extra
        if self.delay_hook is not None:
            t_delay += max(self.delay_hook(pkt), 0.0)
        engine.schedule(self.stage_latency + t_delay, self.sink, pkt)
        self._free_at = free_at = now + (t_ser + t_delay)
        self._ticket = ticket = engine.late_ticket(free_at)
        self._pending = bool(self._waiting)
        if self._pending:
            engine.schedule_at(free_at, self._tx_done, ticket=ticket)


class ArcticRouter:
    """A router stage: verifies CRC, routes, forwards cut-through.

    The fabric sets ``route_fn(packet) -> Link`` after wiring (the next
    link of the route the packet carries); the router itself only knows
    how to check and forward.
    """

    def __init__(self, engine: Engine, name: str = "router") -> None:
        self.engine = engine
        self.name = name
        self.route_fn: Optional[Callable[[Packet], Link]] = None
        self.packets_forwarded = 0
        self.crc_errors = 0
        self.dropped: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        """Packet head arrived at this router; verify and forward."""
        if not packet.check_crc():
            # Section 2.2: correctness verified at every router stage.
            self.crc_errors += 1
            self.dropped.append(packet)
            tr = obs_trace.TRACER
            if tr is not None:
                tr.instant(
                    "fabric", self.name, "crc-drop", self.engine.now,
                    cat="fault", args=obs_trace.emit_arg_packet(packet),
                )
            return
        if self.route_fn is None:
            raise RuntimeError(f"router {self.name} not wired into a topology")
        packet.hops += 1
        out = self.route_fn(packet)
        out.send(packet)
        self.packets_forwarded += 1
