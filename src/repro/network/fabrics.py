"""The one DES fabric: routers and links built from a machine shape's
wiring, packets forwarded along its route.

A :class:`~repro.network.topology.Topology` states two things — its
``wiring()`` (router names, and the directed links with the router or
endpoint each one leads to) and its ``route(src, dst)`` (the link ids a
packet crosses, injection link first, delivery link last).
:class:`Fabric` turns the first into :class:`~repro.network.router.Link`
and :class:`~repro.network.router.ArcticRouter` objects and stamps the
second on every injected packet (``pkt.route``, as the StarT-X header
carries its up/down route); a router forwards to
``links[pkt.route[pkt.hops]]``.  Fat tree, mesh, tori, hyper-crossbar
and hub are this class over different data, so link fault hooks, stalls,
CRC accounting and the interface the StarT-X NIU and the fault layer
rely on (``attach_endpoint``, ``inject``, ``params.link_bandwidth``,
``path_links``, ``iter_links``, ``node_links``, ``kill_endpoint``,
``fault_counters``) are the same on every machine.

:class:`HubFabric` keeps what is genuinely different about a shared
medium: sends from a dead station vanish at the source, and a crash
does not stall the one link everybody else is using.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.obs import trace as obs_trace
from repro.sim import Engine
from repro.network.packet import Packet
from repro.network.router import (
    ARCTIC_LINK_BANDWIDTH,
    ARCTIC_STAGE_LATENCY,
    ArcticRouter,
    Link,
)


@dataclass(frozen=True)
class FabricParams:
    """Hardware parameters of a fabric (defaults: Arctic, Section 2.2)."""

    link_bandwidth: float = ARCTIC_LINK_BANDWIDTH
    stage_latency: float = ARCTIC_STAGE_LATENCY
    seed: int = 0


#: The name ``HyadesConfig(fabric=...)`` callers spell it by.
FatTreeParams = FabricParams


class Fabric:
    """A packet-level fabric wired and routed by ``topology``.

    ``links`` and ``routers`` are in the topology's enumeration order
    (a link id is an index into ``links``).  Endpoints attach via
    :meth:`attach_endpoint`, providing a sink callable invoked when a
    packet's head reaches the endpoint; the endpoint is responsible for
    adding its own drain/serialization time.
    """

    def __init__(self, engine: Engine, topology, params: Optional[FabricParams] = None) -> None:
        self.engine = engine
        self.topology = topology
        self.n = topology.n_endpoints
        self.params = params or FabricParams()
        self._endpoint_sinks: List[Optional[Callable[[Packet], None]]] = [None] * self.n
        self._endpoint_dead: List[bool] = [False] * self.n
        self._inject_seq: List[int] = [0] * self.n
        self.blackholed_packets = 0
        #: Sends refused because the source itself is dead; only a fabric
        #: without per-endpoint injection links (the hub) ever counts one.
        self.dropped_at_source = 0
        #: The per-endpoint delivery callbacks, built once: the last link
        #: toward ``ep`` (or a loopback event) calls ``_deliver[ep]``.
        self._deliver = [self._make_endpoint_sink(ep) for ep in range(self.n)]
        #: Called with the endpoint id whenever :meth:`kill_endpoint`
        #: fires (crash-recovery runtimes subscribe here).
        self.crash_listeners: List[Callable[[int], None]] = []

        router_names, wires = topology.wiring()
        self.links: List[Link] = []
        links = self.links

        def next_link(pkt: Packet) -> Link:
            return links[pkt.route[pkt.hops]]

        self.routers = [ArcticRouter(engine, name=name) for name in router_names]
        for router in self.routers:
            router.route_fn = next_link
        for name, head in wires:
            if head is None:  # a shared medium: whoever the packet names
                sink = self._dispatch
            elif head < 0:
                sink = self._deliver[~head]
            else:
                sink = self.routers[head].receive
            links.append(
                Link(
                    engine,
                    sink,
                    bandwidth=self.params.link_bandwidth,
                    stage_latency=self.params.stage_latency,
                    name=name,
                )
            )

    def _dispatch(self, pkt: Packet) -> None:
        self._deliver[pkt.dst](pkt)

    def _make_endpoint_sink(self, ep: int) -> Callable[[Packet], None]:
        def sink(pkt: Packet) -> None:
            if self._endpoint_dead[ep]:
                self.blackholed_packets += 1
                tr = obs_trace.TRACER
                if tr is not None:
                    tr.instant(
                        "fabric", f"ep{ep}", "blackhole", self.engine.now,
                        cat="fault", args=obs_trace.emit_arg_packet(pkt),
                    )
                return
            target = self._endpoint_sinks[ep]
            if target is None:
                raise RuntimeError(f"packet arrived at unattached endpoint {ep}")
            pkt.recv_time = self.engine.now
            target(pkt)

        return sink

    # -- public API -----------------------------------------------------

    def attach_endpoint(self, ep: int, sink: Callable[[Packet], None]) -> None:
        """Register the NIU receive callback for endpoint ``ep``."""
        if not (0 <= ep < self.n):
            raise ValueError(f"endpoint {ep} out of range 0..{self.n - 1}")
        self._endpoint_sinks[ep] = sink

    def inject(self, pkt: Packet) -> None:
        """Endpoint ``pkt.src`` puts a packet on its injection link."""
        src = pkt.src
        if not (0 <= pkt.dst < self.n):
            raise ValueError(f"destination {pkt.dst} out of range")
        if not (0 <= src < self.n):
            raise ValueError(f"source {src} out of range")
        # Per-source injection sequence number: a route with a randomized
        # component keys its per-packet choices off this (plus the fabric
        # seed), so paths are reproducible regardless of event
        # interleaving or other fabrics sharing the process.
        pkt.inject_seq = self._inject_seq[src]
        self._inject_seq[src] += 1
        if src == pkt.dst:
            # NIU loopback: no fabric traversal.
            self.engine.schedule(0.0, self._deliver[src], pkt)
            return
        pkt.send_time = self.engine.now
        pkt.route = route = self.topology.packet_route(pkt, self.params.seed)
        self.links[route[0]].send(pkt)

    # -- analysis -------------------------------------------------------

    def path_links(self, src: int, dst: int) -> int:
        """Number of links on the (deterministic) src->dst path."""
        return self.topology.hop_distance(src, dst)

    def head_latency(self, src: int, dst: int) -> float:
        """Zero-load head latency for the deterministic path."""
        return self.path_links(src, dst) * self.params.stage_latency

    # -- fault accounting ----------------------------------------------

    def iter_links(self) -> Iterator[Link]:
        """Every directed link of the fabric (injection first)."""
        return iter(self.links)

    def node_links(self, ep: int) -> List[Link]:
        """The links touching endpoint ``ep``: its injection link and the
        last-hop link toward it (one and the same on a shared medium)."""
        other = ep - 1 if ep else 1
        ends = (
            self.topology.route(ep, other)[0], self.topology.route(other, ep)[-1]
        )
        return [self.links[i] for i in dict.fromkeys(ends)]

    def kill_endpoint(self, ep: int) -> None:
        """Crash endpoint ``ep``: it stops sending (injection link down
        forever) and arriving packets are blackholed.

        The death is recorded on the engine (so the deadlock watchdog
        can name crashed nodes) and every registered crash listener is
        notified at the instant of death.
        """
        if self._endpoint_dead[ep]:
            return
        self._endpoint_dead[ep] = True
        self._silence(ep)
        self.engine.crashed_nodes[ep] = self.engine.now
        tr = obs_trace.TRACER
        if tr is not None:
            tr.instant(
                "fabric", f"ep{ep}", "crash", self.engine.now,
                cat="fault", args={"endpoint": ep},
            )
        for listener in list(self.crash_listeners):
            listener(ep)

    def _silence(self, ep: int) -> None:
        """Stop a crashed endpoint from sending: its injection link dies."""
        self.node_links(ep)[0].stall(float("inf"))

    def total_crc_errors(self) -> int:
        """Corrupted packets dropped across all router stages."""
        return sum(r.crc_errors for r in self.routers)

    def fault_counters(self) -> dict:
        """Aggregate fault/error counters across the whole fabric."""
        dropped = corrupted = 0
        for link in self.links:
            dropped += link.stats.dropped
            corrupted += link.stats.corrupted
        return {
            "link_drops": dropped,
            "link_corruptions": corrupted,
            "router_crc_drops": self.total_crc_errors(),
            "blackholed": self.blackholed_packets,
            "source_drops": self.dropped_at_source,
        }


class HubFabric(Fabric):
    """A single shared half-duplex medium (Ethernet hub / collision
    domain): every packet from every endpoint serializes through one
    :class:`Link`, which *is* the contention model.
    """

    def inject(self, pkt: Packet) -> None:
        """Queue ``pkt`` on the shared medium (loopback bypasses it;
        sends from a dead station are dropped and counted)."""
        n = self.n
        if 0 <= pkt.dst < n and 0 <= pkt.src < n and self._endpoint_dead[pkt.src]:
            self.dropped_at_source += 1
            return
        super().inject(pkt)

    def _silence(self, ep: int) -> None:
        """A dead station must not stall the shared medium for everyone:
        its own sends vanish at :meth:`inject`, the hub lives on."""
