"""The per-hop path as it stood before a packet-hop became one call,
kept as a differential oracle.

``Link.send`` / ``_tx_done`` / ``_transmit`` and ``ArcticRouter.receive``
below are that code verbatim: the router checks the CRC through
``Packet.check_crc`` and asks a per-fabric ``route_fn`` closure for its
next link, the link reads ``Packet.wire_bytes`` and clamps the rate with
``max``, and the tail-off is an event of its own (``_tx_done``).  Only
the class names and the constructors, which rebuild the closure the
fabric used to assign, are new.
``tests/network/test_link_equivalence.py`` swaps these classes into the
fabric and demands the same deliveries, times, counters, events and
trace.  Never import this module from ``src/``.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.obs import trace as obs_trace
from repro.sim import Engine
from repro.network.packet import Packet, Priority
from repro.network.router import FAULT_CORRUPT, FAULT_DROP, ArcticRouter, Link


class ReferenceHopLink(Link):
    """:class:`Link` with the old ``send`` / ``_tx_done`` / ``_transmit``."""

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


class ReferenceRouter(ArcticRouter):
    """:class:`ArcticRouter` with the old ``receive`` and the
    ``route_fn`` closure the fabric used to assign to every router."""

    def __init__(self, engine: Engine, links: List[Link], name: str = "router") -> None:
        super().__init__(engine, links, name=name)

        def next_link(pkt: Packet) -> Link:
            return links[pkt.route[pkt.hops]]

        self.route_fn = next_link

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
