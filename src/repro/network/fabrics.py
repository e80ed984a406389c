"""DES fabrics beyond the Arctic fat tree: grids, crossbars, a hub.

Every fabric speaks the same minimal interface the StarT-X NIU (and the
fault layer) relies on — ``attach_endpoint``, ``inject``,
``params.link_bandwidth``, ``path_links``, ``kill_endpoint``,
``fault_counters`` — so a :class:`~repro.network.topology.Topology` can
swap the machine under an unchanged endpoint stack.  The shared
endpoint plumbing (sinks, crash bookkeeping, black-holing) lives in
:class:`BaseFabric`; the wiring and routing are per-fabric:

* :class:`GridFabric` — an n-dimensional mesh or torus with
  dimension-ordered routing (Columbia/QCDSP style, hep-lat/9412093);
* :class:`CrossbarFabric` — a hyper-crossbar: every axis-aligned line
  of nodes shares a full crossbar, so any hop fixes one whole
  coordinate (CP-PACS style, hep-lat/9608148);
* :class:`HubFabric` — a single shared half-duplex medium every packet
  serializes through (PMS-style Ethernet baseline, hep-lat/9912059).

All three reuse the cut-through :class:`~repro.network.router.Link`
and :class:`~repro.network.router.ArcticRouter` primitives, so link
fault hooks, stalls and CRC accounting work identically on every
machine shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.sim import Engine
from repro.network.errors import EndpointCountError
from repro.network.packet import Packet
from repro.network.router import (
    ARCTIC_LINK_BANDWIDTH,
    ARCTIC_STAGE_LATENCY,
    ArcticRouter,
    Link,
)


@dataclass(frozen=True)
class FabricParams:
    """Hardware parameters shared by every fabric kind."""

    link_bandwidth: float = ARCTIC_LINK_BANDWIDTH
    stage_latency: float = ARCTIC_STAGE_LATENCY
    seed: int = 0


class BaseFabric:
    """Endpoint plumbing common to every DES fabric.

    Subclasses wire their routers/links in ``__init__`` (filling
    ``inject_links``), implement :meth:`path_links` and
    :meth:`_internal_links`, and provide :meth:`_delivery_link` for the
    per-endpoint fault surface.
    """

    def __init__(self, engine: Engine, n_endpoints: int, params) -> None:
        self.engine = engine
        self.n = n_endpoints
        self.params = params
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
        self.inject_links: List[Link] = []

    # -- wiring helpers -------------------------------------------------

    def _mk_link(self, sink: Callable[[Packet], None], name: str) -> Link:
        return Link(
            self.engine,
            sink,
            bandwidth=self.params.link_bandwidth,
            stage_latency=self.params.stage_latency,
            name=name,
        )

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
        if not (0 <= pkt.dst < self.n):
            raise ValueError(f"destination {pkt.dst} out of range")
        # Per-source injection sequence number: fabrics whose routing has
        # a randomized component key their per-packet choices off this
        # (plus the fabric seed), so paths are reproducible regardless of
        # event interleaving or other fabrics sharing the process.
        pkt.inject_seq = self._inject_seq[pkt.src]
        self._inject_seq[pkt.src] += 1
        if pkt.src == pkt.dst:
            # NIU loopback: no fabric traversal.
            self.engine.schedule(0.0, self._deliver[pkt.dst], pkt)
            return
        pkt.send_time = self.engine.now
        self.inject_links[pkt.src].send(pkt)

    # -- analysis -------------------------------------------------------

    def path_links(self, src: int, dst: int) -> int:
        """Number of links on the (deterministic) src->dst path."""
        raise NotImplementedError

    def head_latency(self, src: int, dst: int) -> float:
        """Zero-load head latency for the deterministic path."""
        return self.path_links(src, dst) * self.params.stage_latency

    # -- fault accounting ----------------------------------------------

    def _internal_links(self) -> Iterable[Link]:
        """Every non-injection directed link (subclass-specific)."""
        raise NotImplementedError

    def _delivery_link(self, ep: int) -> Link:
        """The final link that delivers packets to endpoint ``ep``."""
        raise NotImplementedError

    def iter_links(self) -> Iterable[Link]:
        """Every directed link of the fabric (injection first)."""
        yield from self.inject_links
        yield from self._internal_links()

    def node_links(self, ep: int) -> List[Link]:
        """The links touching endpoint ``ep``: its injection link and the
        last-hop link toward it."""
        return [self.inject_links[ep], self._delivery_link(ep)]

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
        self.inject_links[ep].stall(float("inf"))

    def endpoint_dead(self, ep: int) -> bool:
        """True when endpoint ``ep`` has been crashed."""
        return self._endpoint_dead[ep]

    def total_crc_errors(self) -> int:
        """Corrupted packets dropped across all router stages."""
        return sum(r.crc_errors for r in self._iter_routers())

    def _iter_routers(self) -> Iterable[ArcticRouter]:
        return ()

    def fault_counters(self) -> dict:
        """Aggregate fault/error counters across the whole fabric."""
        dropped = corrupted = 0
        for link in self.iter_links():
            dropped += link.stats.dropped
            corrupted += link.stats.corrupted
        return {
            "link_drops": dropped,
            "link_corruptions": corrupted,
            "router_crc_drops": self.total_crc_errors(),
            "blackholed": self.blackholed_packets,
            "source_drops": self.dropped_at_source,
        }


# -- coordinate helpers -----------------------------------------------------


def node_coords(node: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Mixed-radix coordinates of ``node`` (axis 0 varies fastest)."""
    coords = []
    for d in dims:
        coords.append(node % d)
        node //= d
    return tuple(coords)


def coords_node(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Inverse of :func:`node_coords`."""
    node = 0
    for c, d in zip(reversed(coords), reversed(dims)):
        node = node * d + c
    return node


def grid_distance(src: int, dst: int, dims: Sequence[int], wrap: bool) -> int:
    """Manhattan router-to-router distance (per-axis shortest with wrap)."""
    total = 0
    for a, b, d in zip(node_coords(src, dims), node_coords(dst, dims), dims):
        delta = abs(a - b)
        total += min(delta, d - delta) if wrap else delta
    return total


class GridFabric(BaseFabric):
    """An n-D mesh (``wrap=False``) or torus (``wrap=True``) of routers.

    One router per node; dimension-ordered routing (correct lowest axis
    first, on a torus taking the shorter way around, ties broken toward
    +1) — deadlock-free for the DES because links are infinite-queue.
    """

    def __init__(
        self,
        engine: Engine,
        dims: Sequence[int],
        wrap: bool = True,
        params: Optional[FabricParams] = None,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise EndpointCountError(
                math.prod(dims) if dims else 0,
                "every grid dimension >= 2",
                topology="torus" if wrap else "mesh",
            )
        super().__init__(engine, math.prod(dims), params or FabricParams())
        self.dims = dims
        self.wrap = wrap
        kind = "T" if wrap else "M"
        self.routers = [
            ArcticRouter(engine, name=f"{kind}{i}") for i in range(self.n)
        ]
        self.deliver_links = [
            self._mk_link(self._deliver[i], f"{kind}{i}_e")
            for i in range(self.n)
        ]
        #: neighbor_links[node][(axis, step)] with step in (+1, -1).
        self.neighbor_links: List[Dict[Tuple[int, int], Link]] = []
        for i in range(self.n):
            coords = node_coords(i, dims)
            links: Dict[Tuple[int, int], Link] = {}
            for axis, d in enumerate(dims):
                for step in (1, -1):
                    c = coords[axis] + step
                    if wrap:
                        c %= d
                    elif not (0 <= c < d):
                        continue
                    nb = coords_node(
                        coords[:axis] + (c,) + coords[axis + 1:], dims
                    )
                    links[(axis, step)] = self._mk_link(
                        self.routers[nb].receive, f"{kind}{i}.{axis}{step:+d}"
                    )
            self.neighbor_links.append(links)
            self.routers[i].route_fn = self._make_route_fn(i)
        self.inject_links = [
            self._mk_link(self.routers[i].receive, f"niu{i}^")
            for i in range(self.n)
        ]

    def _make_route_fn(self, node: int) -> Callable[[Packet], Link]:
        coords = node_coords(node, self.dims)

        def route(pkt: Packet) -> Link:
            if pkt.dst == node:
                return self.deliver_links[node]
            want = node_coords(pkt.dst, self.dims)
            for axis, d in enumerate(self.dims):
                if coords[axis] == want[axis]:
                    continue
                delta = want[axis] - coords[axis]
                if self.wrap and abs(delta) > d - abs(delta):
                    delta = -delta  # shorter the other way around
                step = 1 if delta > 0 else -1
                return self.neighbor_links[node][(axis, step)]
            raise RuntimeError("unreachable: dst != node but coords equal")

        return route

    def path_links(self, src: int, dst: int) -> int:
        """Links on the src->dst path: manhattan grid distance (shorter
        way around on a torus) plus the inject and delivery links."""
        if src == dst:
            return 0
        return grid_distance(src, dst, self.dims, self.wrap) + 2

    def _internal_links(self) -> Iterable[Link]:
        yield from self.deliver_links
        for links in self.neighbor_links:
            yield from links.values()

    def _delivery_link(self, ep: int) -> Link:
        return self.deliver_links[ep]

    def _iter_routers(self) -> Iterable[ArcticRouter]:
        return iter(self.routers)


class CrossbarFabric(BaseFabric):
    """A hyper-crossbar: each axis-aligned line shares a full crossbar.

    CP-PACS topology (hep-lat/9608148): a 3-D array where a single
    network hop can fix a node's entire coordinate along one axis, so
    any pair is at most ``len(dims)`` crossbar traversals apart.  Each
    traversal is modelled as node → crossbar switch → node (two links
    plus a router stage), matching the exchanger-in/exchanger-out of
    the real machine.
    """

    def __init__(
        self,
        engine: Engine,
        dims: Sequence[int],
        params: Optional[FabricParams] = None,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise EndpointCountError(
                math.prod(dims) if dims else 0,
                "every crossbar dimension >= 2",
                topology="hyper-crossbar",
            )
        super().__init__(engine, math.prod(dims), params or FabricParams())
        self.dims = dims
        self.node_routers = [
            ArcticRouter(engine, name=f"X{i}") for i in range(self.n)
        ]
        self.deliver_links = [
            self._mk_link(self._deliver[i], f"X{i}_e")
            for i in range(self.n)
        ]
        #: crossbar routers keyed by (axis, line id) where the line id is
        #: the node id with the axis coordinate zeroed.
        self.xbar_routers: Dict[Tuple[int, int], ArcticRouter] = {}
        #: down links from a crossbar to each node on its line, keyed by
        #: (axis, line id) -> {axis coordinate -> Link}.
        self.xbar_down: Dict[Tuple[int, int], Dict[int, Link]] = {}
        #: up links node -> crossbar, one per axis: up_links[node][axis].
        self.up_links: List[List[Link]] = [[] for _ in range(self.n)]
        for axis in range(len(dims)):
            for i in range(self.n):
                line = self._line_id(i, axis)
                if (axis, line) not in self.xbar_routers:
                    xr = ArcticRouter(engine, name=f"XB{axis}.{line}")
                    self.xbar_routers[(axis, line)] = xr
                    self.xbar_down[(axis, line)] = {}
                    xr.route_fn = self._make_xbar_route_fn(axis, line)
        for i in range(self.n):
            coords = node_coords(i, dims)
            for axis in range(len(dims)):
                line = self._line_id(i, axis)
                self.up_links[i].append(
                    self._mk_link(
                        self.xbar_routers[(axis, line)].receive,
                        f"X{i}^a{axis}",
                    )
                )
                self.xbar_down[(axis, line)][coords[axis]] = self._mk_link(
                    self.node_routers[i].receive, f"XB{axis}.{line}_c{coords[axis]}"
                )
            self.node_routers[i].route_fn = self._make_node_route_fn(i)
        self.inject_links = [
            self._mk_link(self.node_routers[i].receive, f"niu{i}^")
            for i in range(self.n)
        ]

    def _line_id(self, node: int, axis: int) -> int:
        coords = list(node_coords(node, self.dims))
        coords[axis] = 0
        return coords_node(coords, self.dims)

    def _make_node_route_fn(self, node: int) -> Callable[[Packet], Link]:
        coords = node_coords(node, self.dims)

        def route(pkt: Packet) -> Link:
            if pkt.dst == node:
                return self.deliver_links[node]
            want = node_coords(pkt.dst, self.dims)
            for axis in range(len(self.dims)):
                if coords[axis] != want[axis]:
                    return self.up_links[node][axis]
            raise RuntimeError("unreachable: dst != node but coords equal")

        return route

    def _make_xbar_route_fn(self, axis: int, line: int) -> Callable[[Packet], Link]:
        def route(pkt: Packet) -> Link:
            c = node_coords(pkt.dst, self.dims)[axis]
            return self.xbar_down[(axis, line)][c]

        return route

    def differing_axes(self, src: int, dst: int) -> int:
        """Axes on which ``src`` and ``dst`` coordinates differ."""
        return sum(
            a != b
            for a, b in zip(
                node_coords(src, self.dims), node_coords(dst, self.dims)
            )
        )

    def path_links(self, src: int, dst: int) -> int:
        """Links on the src->dst path: inject + delivery plus one
        up/down pair per crossbar traversed (one per differing axis)."""
        if src == dst:
            return 0
        return 2 + 2 * self.differing_axes(src, dst)

    def _internal_links(self) -> Iterable[Link]:
        yield from self.deliver_links
        for links in self.up_links:
            yield from links
        for down in self.xbar_down.values():
            yield from down.values()

    def _delivery_link(self, ep: int) -> Link:
        return self.deliver_links[ep]

    def _iter_routers(self) -> Iterable[ArcticRouter]:
        yield from self.node_routers
        yield from self.xbar_routers.values()


class HubFabric(BaseFabric):
    """A single shared half-duplex medium (Ethernet hub / collision
    domain): every packet from every endpoint serializes through one
    :class:`Link`, which *is* the contention model.
    """

    def __init__(
        self,
        engine: Engine,
        n_endpoints: int,
        params: Optional[FabricParams] = None,
    ) -> None:
        if n_endpoints < 2:
            raise EndpointCountError(
                n_endpoints, "at least 2 endpoints", topology="ethernet hub"
            )
        super().__init__(engine, n_endpoints, params or FabricParams())
        self.hub_link = self._mk_link(self._dispatch, "hub")
        self.inject_links = [self.hub_link] * self.n

    def _dispatch(self, pkt: Packet) -> None:
        self._deliver[pkt.dst](pkt)

    def inject(self, pkt: Packet) -> None:
        """Queue ``pkt`` on the shared medium (loopback bypasses it;
        sends from a dead station are dropped and counted)."""
        if 0 <= pkt.dst < self.n and self._endpoint_dead[pkt.src]:
            self.dropped_at_source += 1
            return
        super().inject(pkt)

    def path_links(self, src: int, dst: int) -> int:
        """One hop for every distinct pair: the medium is flat."""
        return 0 if src == dst else 1

    def iter_links(self) -> Iterable[Link]:
        """The single shared link (there is nothing else to inject
        faults into)."""
        yield self.hub_link

    def node_links(self, ep: int) -> List[Link]:
        """Every station's traffic rides the one shared link."""
        return [self.hub_link]

    def _silence(self, ep: int) -> None:
        """A dead station must not stall the shared medium for everyone:
        its own sends vanish at :meth:`inject`, the hub lives on."""
