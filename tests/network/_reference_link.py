"""The generator-process link transmitter, kept as a differential oracle.

This is ``repro.network.router.Link`` as it stood before the link became
a callback state machine: one daemon generator process, one
``PriorityStore`` and one ``Timeout`` per packet per link.  The class
body below is that code verbatim (only the class name changed);
``tests/network/test_link_equivalence.py`` swaps it in for ``Link`` and
demands the same packets, in the same order, at bit-identical virtual
times.  It costs about one more engine event per packet-hop than the
real one and must never be imported from ``src/``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import trace as obs_trace
from repro.sim import Engine, PriorityStore
from repro.network.packet import Packet, Priority
from repro.network.router import (
    ARCTIC_LINK_BANDWIDTH,
    ARCTIC_STAGE_LATENCY,
    FAULT_CORRUPT,
    FAULT_DROP,
    LinkStats,
)


class ReferenceLink:
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
        self._queue = PriorityStore(engine, name=f"link:{name}")
        engine.process(self._transmitter(), name=f"link:{name}", daemon=True)

    def send(self, packet: Packet) -> None:
        """Enqueue a packet for transmission (HIGH priority jumps LOW)."""
        self._queue.try_put(packet, priority=int(packet.priority))
        tr = obs_trace.TRACER
        if tr is not None:
            tr.counter(
                "fabric", f"q:{self.name}", self.engine.now,
                {"queued": len(self._queue)},
            )

    @property
    def queued(self) -> int:
        return len(self._queue)

    def stall(self, duration: float) -> None:
        """Block the transmitter for ``duration`` seconds of virtual time.

        Queued and newly arriving packets wait; nothing is lost.  Models
        a node or link that temporarily stops making progress.
        """
        self._stalled_until = max(self._stalled_until, self.engine.now + duration)

    def _transmitter(self):
        while True:
            pkt: Packet = yield self._queue.get()
            while self.engine.now < self._stalled_until:
                if self._stalled_until == float("inf"):
                    self.stats.dropped += 1
                    return  # link is dead: stop transmitting entirely
                yield self.engine.timeout(self._stalled_until - self.engine.now)
            tr = obs_trace.TRACER
            if tr is not None:
                tr.counter(
                    "fabric", f"q:{self.name}", self.engine.now,
                    {"queued": len(self._queue)},
                )
            if self.fault_hook is not None:
                verdict = self.fault_hook(pkt)
                if verdict == FAULT_DROP:
                    self.stats.dropped += 1
                    if tr is not None:
                        tr.instant(
                            "fabric", self.name, "drop", self.engine.now,
                            cat="fault", args=obs_trace.emit_arg_packet(pkt),
                        )
                    continue
                if verdict == FAULT_CORRUPT:
                    pkt.corrupt = True
                    self.stats.corrupted += 1
                    if tr is not None:
                        tr.instant(
                            "fabric", self.name, "corrupt", self.engine.now,
                            cat="fault", args=obs_trace.emit_arg_packet(pkt),
                        )
            t_ser = pkt.wire_bytes / (self.bandwidth * max(self.rate_factor, 1e-9))
            self.stats.packets += 1
            self.stats.bytes += pkt.wire_bytes
            self.stats.busy_time += t_ser
            if pkt.priority == Priority.HIGH:
                self.stats.high_priority_packets += 1
            if tr is not None:
                tr.complete(
                    "fabric", self.name, f"{pkt.src}->{pkt.dst}",
                    self.engine.now, self.engine.now + t_ser,
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
            self.engine.schedule(
                self.stage_latency + t_delay, lambda p=pkt: self.sink(p)
            )
            yield self.engine.timeout(t_ser + t_delay)
