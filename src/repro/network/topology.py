"""The topology zoo: machine shapes the PFPP scoreboard ranks.

A :class:`Topology` bundles everything the analytic tier, the
collectives autotuner and the DES need to price communication on one
machine shape:

* geometry — endpoint count and bisection; hop counts are the lengths
  of the routes below, so a shape states its geometry once;
* link hardware — per-link bandwidth and per-hop (stage) latency;
* a calibrated :class:`~repro.network.costmodel.CommCostModel` for the
  closed-form exchange/gsum terms (including the hop-latency surcharge
  and whether the medium is shared);
* routing as data — ``wiring()`` (routers and directed links, by name,
  in enumeration order) and ``route(src, dst)`` (the link ids a packet
  crosses) — from which the one DES
  :class:`~repro.network.fabrics.Fabric` builds and forwards.

Implementations model the 1990s landscape the paper's Hyades competed
with, calibrated from the cited papers' published link specs:

====================  =======================================================
``fattree``           Arctic Switch Fabric (the source paper, Section 2.2):
                      radix-4 fat tree, 150 MB/s links, 0.15 us/stage.
``torus2d/torus3d``   Columbia 0.8 TFlops style (hep-lat/9412093,
``mesh2d``            hep-lat/9509075): 16K nodes on a nearest-neighbour
                      grid of serial links — modelled at 25 MB/s per link,
                      0.5 us per hop, lightweight kernel messaging.
``hypercrossbar``     CP-PACS (hep-lat/9608148): 2048 PUs on a 3-D
                      hyper-crossbar, 300 MB/s links; any hop fixes one
                      whole coordinate, so every pair is <= 3 traversals.
``ethernet``          PMS-style flat shared Ethernet (hep-lat/9912059),
                      reusing the Fig. 12-calibrated Fast Ethernet model
                      (7.92 MB/s effective shared backplane).
====================  =======================================================

Registry: :func:`make_topology` / :func:`topology_names`, mirroring
the backend registry idiom.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.network.costmodel import (
    US,
    CommCostModel,
    arctic_cost_model,
    fast_ethernet_cost_model,
)
from repro.network.errors import EndpointCountError, TopologyError
from repro.network.fabrics import Fabric, FabricParams, HubFabric
from repro.network.fattree import _mix32, fat_tree_wiring, up_down_route
from repro.network.router import ARCTIC_LINK_BANDWIDTH, ARCTIC_STAGE_LATENCY

#: ``(router names, [(link name, head), ...])`` in enumeration order; a
#: link id is its index.  ``head`` is the number of the router the link
#: leads to, ``~e`` when it delivers to endpoint ``e``, ``None`` for a
#: shared medium that delivers to whichever endpoint the packet names.
Wiring = Tuple[List[str], List[Tuple[str, Optional[int]]]]

#: Modelled Columbia/QCDSP-style serial grid links (hep-lat/9412093 — a
#: 16K-node machine of nearest-neighbour serial links): modest per-link
#: bandwidth, sub-microsecond hop, tiny kernel-bypass message overhead.
TORUS_LINK_BANDWIDTH = 25e6
TORUS_STAGE_LATENCY = 0.5 * US
TORUS_TRANSFER_OVERHEAD = 2.0 * US

#: Modelled CP-PACS hyper-crossbar links (hep-lat/9608148: 300 MB/s per
#: link) with remote-DMA start-up on the exchanger.
HXB_LINK_BANDWIDTH = 300e6
HXB_STAGE_LATENCY = 2.0 * US
HXB_TRANSFER_OVERHEAD = 4.5 * US


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _require_pow2(n: int, topology: str) -> None:
    if not isinstance(n, int) or not _is_pow2(n) or n < 2:
        raise EndpointCountError(
            n, "a power-of-two endpoint count >= 2", topology=topology
        )


def balanced_dims(n: int, ndim: int) -> Tuple[int, ...]:
    """Factor pow2 ``n`` into ``ndim`` near-equal pow2 extents
    (largest first is NOT required; axis 0 gets the extra factors)."""
    _require_pow2(n, f"{ndim}-D grid")
    k = n.bit_length() - 1
    base, extra = divmod(k, ndim)
    dims = tuple(
        1 << (base + (1 if a < extra else 0)) for a in range(ndim)
    )
    if any(d < 2 for d in dims):
        raise EndpointCountError(
            n, f"at least 2**{ndim} endpoints for a {ndim}-D grid",
            topology=f"{ndim}-D grid",
        )
    return dims


def node_coords(node: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Mixed-radix coordinates of ``node`` (axis 0 varies fastest)."""
    coords = []
    for d in dims:
        coords.append(node % d)
        node //= d
    return tuple(coords)


def _strides(dims: Sequence[int]) -> Tuple[int, ...]:
    """Node-id increment per unit step along each axis."""
    return tuple(math.prod(dims[:axis]) for axis in range(len(dims)))


def _resolve_dims(
    n: int, ndim: int, dims: Optional[Sequence[int]], kind: str
) -> Tuple[int, ...]:
    """``dims`` checked against ``n`` (every extent >= 2), or the
    balanced ``ndim``-D factorisation of ``n`` when none are given."""
    if dims is None:
        return balanced_dims(n, ndim)
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != n or any(d < 2 for d in dims):
        raise TopologyError(
            f"{kind} dims {dims} must be extents >= 2 covering "
            f"n_endpoints={n}, not {math.prod(dims)} nodes"
        )
    return dims


class Topology(abc.ABC):
    """One machine shape: geometry + calibrated link hardware."""

    #: registry key ("fattree", "torus3d", ...).
    name: str = "base"
    #: bytes/s of one link, one direction.
    link_bandwidth: float
    #: seconds of head latency added per traversed link.
    stage_latency: float
    #: True when every endpoint shares one medium (exchange cost scales
    #: with total injected volume).
    shared_medium: bool = False
    #: True when sub-88-byte payloads ride single PIO packets with the
    #: StarT-X software costs (Arctic only; other machines pay their
    #: model's per-message overhead for every size).
    pio_small_messages: bool = False

    #: the DES fabric class :meth:`build_fabric` instantiates.
    fabric_class = Fabric

    def __init__(self, n_endpoints: int) -> None:
        self.n_endpoints = n_endpoints

    # -- geometry --------------------------------------------------------

    def hop_distance(self, src: int, dst: int) -> int:
        """Links traversed on the deterministic src->dst path
        (including injection and delivery links)."""
        return len(self.route(src, dst))

    @functools.cached_property
    def _diameter(self) -> int:
        # every shape here looks the same from each endpoint or, on a
        # mesh, worst from the corner endpoint 0
        return max(len(self.route(0, d)) for d in range(self.n_endpoints))

    def max_hop_distance(self) -> int:
        """Network diameter in links (worst pair)."""
        return self._diameter

    def neighbor_hops(self) -> int:
        """Hop distance between halo-exchange neighbours under the
        natural rank->endpoint mapping (adjacent ids)."""
        return self.hop_distance(0, 1)

    @abc.abstractmethod
    def bisection_links(self) -> int:
        """Full-duplex links crossing the midline cut."""

    def bisection_bandwidth(self) -> float:
        """Aggregate bytes/s across the bisection, both directions."""
        return self.bisection_links() * 2 * self.link_bandwidth

    # -- analytic tier ---------------------------------------------------

    @abc.abstractmethod
    def cost_model(self) -> CommCostModel:
        """The calibrated closed-form model for this machine (includes
        the per-message hop-latency surcharge)."""

    # -- routing as data -------------------------------------------------

    @abc.abstractmethod
    def wiring(self) -> Wiring:
        """The machine's routers and directed links (see :data:`Wiring`)."""

    @abc.abstractmethod
    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Ids of the links a ``src -> dst`` packet crosses, injection
        link first, delivery link last (empty for ``src == dst``)."""

    def packet_route(self, pkt, seed: int) -> Tuple[int, ...]:
        """The route of one packet; differs from :meth:`route` only
        where the machine has equivalent paths to choose among."""
        return self.route(pkt.src, pkt.dst)

    # -- DES tier --------------------------------------------------------

    def build_fabric(self, engine, seed: int = 0) -> Fabric:
        """Wire the packet-level fabric on ``engine``."""
        return self.fabric_class(
            engine,
            self,
            FabricParams(
                link_bandwidth=self.link_bandwidth,
                stage_latency=self.stage_latency,
                seed=seed,
            ),
        )

    def crossval_pairs(self) -> List[Tuple[int, int]]:
        """The (src, dst) pairs of the contention-free cross-validation
        pattern: disjoint directed paths so the closed-form prediction
        is exact up to model error.  Default: neighbours along axis 0
        within each row (a flat machine is one row), both ways; the
        last node of an odd row sits out."""
        row = getattr(self, "dims", (self.n_endpoints,))[0]
        return [
            (e, e - c + (c ^ 1))
            for e in range(self.n_endpoints)
            if (c := e % row) ^ 1 < row
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} N={self.n_endpoints}>"


class FatTreeTopology(Topology):
    """The paper's Arctic fat tree (Section 2.2), 1K-16K capable."""

    name = "fattree"
    link_bandwidth = ARCTIC_LINK_BANDWIDTH
    stage_latency = ARCTIC_STAGE_LATENCY
    pio_small_messages = True

    def __init__(self, n_endpoints: int) -> None:
        _require_pow2(n_endpoints, "fat tree")
        super().__init__(n_endpoints)

    def bisection_links(self) -> int:
        """N/2 duplex links cross the midline (one per top router)."""
        return self.n_endpoints // 2

    def cost_model(self) -> CommCostModel:
        """The measured Arctic model, plus the extra height of trees
        taller than the calibration machine."""
        # The Arctic calibration already folds fabric transit into its
        # measured overheads at the reference machine size; the explicit
        # hop term only adds the extra height of larger trees.
        base = arctic_cost_model()
        extra_hops = max(self.max_hop_distance() - 8, 0)
        return CommCostModel(
            **{
                **base.__dict__,
                "name": f"Arctic fat tree N={self.n_endpoints}",
                "hop_latency": extra_hops * self.stage_latency,
            }
        )

    def paper_bisection_bandwidth(self) -> float:
        """The figure quoted in Section 2.2, ``2 * N * 150 MB/s``: each
        crossing link's two directions and both halves' uplink stages,
        where the structural min-cut (:meth:`bisection_bandwidth`) is
        ``N/2`` duplex links = ``N * 150 MB/s``."""
        return 2 * self.n_endpoints * self.link_bandwidth

    def wiring(self) -> Wiring:
        """Radix-4 routers level by level, butterfly-wired."""
        return fat_tree_wiring(self.n_endpoints)

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Up/down: the up port at level ``l`` is bit ``l-1`` of the
        source, so a (src, dst) pair keeps one path and stays FIFO."""
        return up_down_route(self.n_endpoints, src, dst, src)

    def packet_route(self, pkt, seed: int) -> Tuple[int, ...]:
        """The same up/down rule; a *random uproute* packet draws its up
        bits from a stateless hash of ``(seed, src, dst, inject_seq)``
        instead of from the source address."""
        src, dst = pkt.src, pkt.dst
        up_bits = _mix32(seed, src, dst, pkt.inject_seq) if pkt.random_uproute else src
        return up_down_route(self.n_endpoints, src, dst, up_bits)

    def crossval_pairs(self) -> List[Tuple[int, int]]:
        """Maximum-distance link-disjoint pairs ``e <-> e ^ N/2``."""
        # Maximum-distance pairs: e <-> e ^ N/2 climb the full tree, so
        # the pattern exercises every up/down level; the source-hashed
        # up-routing makes all N paths link-disjoint.
        half = self.n_endpoints // 2
        return [(e, e ^ half) for e in range(self.n_endpoints)]


class GridTopology(Topology):
    """An n-D mesh or torus of serial links (Columbia/QCDSP style)."""

    link_bandwidth = TORUS_LINK_BANDWIDTH
    stage_latency = TORUS_STAGE_LATENCY

    def __init__(
        self,
        n_endpoints: int,
        ndim: int,
        wrap: bool,
        dims: Optional[Sequence[int]] = None,
    ) -> None:
        kind = f"{'torus' if wrap else 'mesh'}{ndim}d"
        dims = _resolve_dims(n_endpoints, ndim, dims, kind)
        super().__init__(n_endpoints)
        self.name = kind
        self.dims = dims
        self.wrap = wrap

    def bisection_links(self) -> int:
        """Links cut across the largest axis (doubled on a torus)."""
        # Cut across the largest axis: the product of the other extents,
        # doubled on a torus (wraparound links also cross the cut when
        # the axis extent is even).
        longest = max(self.dims)
        others = self.n_endpoints // longest
        return 2 * others if (self.wrap and longest > 2) else others

    def cost_model(self) -> CommCostModel:
        """Serial-link grid calibration with neighbour-hop surcharge."""
        return CommCostModel(
            name=f"{self.name} N={self.n_endpoints} {'x'.join(map(str, self.dims))}",
            transfer_overhead=TORUS_TRANSFER_OVERHEAD,
            bandwidth=self.link_bandwidth,
            gsum_round=TORUS_TRANSFER_OVERHEAD * 2
            + self.stage_latency * self.max_hop_distance() / 2,
            hop_latency=self.neighbor_hops() * self.stage_latency,
        )

    @functools.cached_property
    def _grid_links(self) -> Dict[Tuple[int, int, int], Tuple[int, int]]:
        """``(node, axis, step) -> (link id, neighbour)`` for every grid
        link (``step`` +1 or -1; a mesh has none off its edges), in
        enumeration order after the N injection and N delivery links."""
        table: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        first = 2 * self.n_endpoints
        strides = _strides(self.dims)
        for node in range(self.n_endpoints):
            coords = node_coords(node, self.dims)
            for axis, d in enumerate(self.dims):
                for step in (1, -1):
                    c = coords[axis] + step
                    if self.wrap:
                        c %= d
                    elif not (0 <= c < d):
                        continue
                    table[node, axis, step] = (
                        first + len(table),
                        node + (c - coords[axis]) * strides[axis],
                    )
        return table

    def wiring(self) -> Wiring:
        """One router per node, a link to each grid neighbour."""
        kind = "T" if self.wrap else "M"
        nodes = range(self.n_endpoints)
        links: List[Tuple[str, Optional[int]]] = [(f"niu{i}^", i) for i in nodes]
        links += [(f"{kind}{i}_e", ~i) for i in nodes]
        links += [
            (f"{kind}{i}.{axis}{step:+d}", neighbour)
            for (i, axis, step), (_, neighbour) in self._grid_links.items()
        ]
        return [f"{kind}{i}" for i in nodes], links

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Dimension-ordered: correct the lowest axis first, on a torus
        the shorter way around.  A half-ring tie goes the way that does
        not wrap (on a 4-ring 0 -> 2 steps +1 through 1, 2 -> 0 steps
        -1 through 1).  Deadlock-free in the DES because links queue
        without bound."""
        if src == dst:
            return ()
        grid_links = self._grid_links
        route = [src]
        node, stride = src, 1
        for axis, d in enumerate(self.dims):
            have, want = src // stride % d, dst // stride % d
            stride *= d
            if have == want:
                continue
            hops = abs(want - have)
            step = 1 if want > have else -1
            if self.wrap and hops > d - hops:
                hops, step = d - hops, -step
            for _ in range(hops):
                link, node = grid_links[node, axis, step]
                route.append(link)
        route.append(self.n_endpoints + dst)
        return tuple(route)


class HyperCrossbarTopology(Topology):
    """CP-PACS-style 3-D hyper-crossbar (hep-lat/9608148)."""

    name = "hypercrossbar"
    link_bandwidth = HXB_LINK_BANDWIDTH
    stage_latency = HXB_STAGE_LATENCY

    def __init__(
        self, n_endpoints: int, dims: Optional[Sequence[int]] = None
    ) -> None:
        dims = _resolve_dims(n_endpoints, 3, dims, "hypercrossbar")
        super().__init__(n_endpoints)
        self.dims = dims

    def bisection_links(self) -> int:
        """One crossbar link per node on the smaller side of the cut."""
        # Splitting the largest axis in half: every node reaches the far
        # half through its crossbar on that axis — one link per node on
        # the smaller side, which holds d_max // 2 of the axis's planes.
        d_max = max(self.dims)
        return (d_max // 2) * (self.n_endpoints // d_max)

    def cost_model(self) -> CommCostModel:
        """CP-PACS crossbar calibration with neighbour-hop surcharge."""
        return CommCostModel(
            name=f"hypercrossbar N={self.n_endpoints} {'x'.join(map(str, self.dims))}",
            transfer_overhead=HXB_TRANSFER_OVERHEAD,
            bandwidth=self.link_bandwidth,
            gsum_round=HXB_TRANSFER_OVERHEAD * 2
            + self.stage_latency * self.max_hop_distance() / 2,
            hop_latency=self.neighbor_hops() * self.stage_latency,
        )

    def wiring(self) -> Wiring:
        """One router per node and one crossbar switch per axis-aligned
        line of nodes (its id: the line's node with that coordinate
        zeroed); a traversal is node -> crossbar -> node, matching the
        exchanger-in / exchanger-out of the real machine."""
        n, dims, strides = self.n_endpoints, self.dims, _strides(self.dims)
        routers = [f"X{i}" for i in range(n)]
        links: List[Tuple[str, Optional[int]]] = [(f"niu{i}^", i) for i in range(n)]
        links += [(f"X{i}_e", ~i) for i in range(n)]
        #: (axis, line id) -> router number, each axis's lines in id order
        xbars: Dict[Tuple[int, int], int] = {}
        for axis, (d, stride) in enumerate(zip(dims, strides)):
            for line in range(n):
                if line // stride % d == 0:
                    xbars[axis, line] = len(routers)
                    routers.append(f"XB{axis}.{line}")
        for i in range(n):
            for axis, (d, stride) in enumerate(zip(dims, strides)):
                line = i - i // stride % d * stride
                links.append((f"X{i}^a{axis}", xbars[axis, line]))
        for axis, line in xbars:
            for c in range(dims[axis]):
                links.append((f"XB{axis}.{line}_c{c}", line + c * strides[axis]))
        return routers, links

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Lowest differing axis first; one crossbar traversal (an up
        and a down link) sets that whole coordinate."""
        if src == dst:
            return ()
        n, ndim = self.n_endpoints, len(self.dims)
        route = [src]
        node, stride = src, 1
        for axis, d in enumerate(self.dims):
            have, want = node // stride % d, dst // stride % d
            if have != want:
                line = node - have * stride
                # the line's rank among this axis's lines: its id with
                # the (zero) axis digit removed from the mixed radix
                rank = line % stride + line // (stride * d) * stride
                route.append(2 * n + node * ndim + axis)
                route.append((2 + ndim + axis) * n + rank * d + want)
                node = line + want * stride
            stride *= d
        route.append(n + dst)
        return tuple(route)


class EthernetTopology(Topology):
    """PMS-style flat shared Fast Ethernet (hep-lat/9912059)."""

    name = "ethernet"
    shared_medium = True
    fabric_class = HubFabric
    stage_latency = 5.0 * US  # hub forwarding / preamble, one hop

    def __init__(self, n_endpoints: int) -> None:
        if n_endpoints < 2:
            raise EndpointCountError(
                n_endpoints, "at least 2 endpoints", topology="ethernet"
            )
        super().__init__(n_endpoints)
        self._model = fast_ethernet_cost_model()
        self.link_bandwidth = self._model.bandwidth

    def bisection_links(self) -> int:
        """The single shared medium IS the cut."""
        return 1

    def bisection_bandwidth(self) -> float:
        """Half-duplex shared medium: no direction doubling."""
        return self.link_bandwidth

    def cost_model(self) -> CommCostModel:
        """The Fig. 12-calibrated measured Fast Ethernet fit."""
        return self._model

    def wiring(self) -> Wiring:
        """No router, one link: the shared medium."""
        return [], [("hub", None)]

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Every distinct pair crosses the one shared link."""
        return () if src == dst else (0,)


def FatTree(engine, n_endpoints: int, params: Optional[FabricParams] = None) -> Fabric:
    """The packet-level Arctic fat tree serving ``n_endpoints`` NIUs."""
    return Fabric(engine, FatTreeTopology(n_endpoints), params)


# -- registry ---------------------------------------------------------------

#: name -> factory(n_endpoints) -> Topology.
TOPOLOGIES: Dict[str, Callable[[int], Topology]] = {
    "fattree": FatTreeTopology,
    "mesh2d": lambda n: GridTopology(n, ndim=2, wrap=False),
    "torus2d": lambda n: GridTopology(n, ndim=2, wrap=True),
    "torus3d": lambda n: GridTopology(n, ndim=3, wrap=True),
    "hypercrossbar": HyperCrossbarTopology,
    "ethernet": EthernetTopology,
}

#: The cross-architecture scoreboard's default machine line-up: one
#: representative per family (mesh2d rides along as a torus ablation).
SCOREBOARD_TOPOLOGIES = (
    "fattree", "torus2d", "torus3d", "hypercrossbar", "ethernet",
)


def topology_names() -> Tuple[str, ...]:
    """Every registered topology name."""
    return tuple(TOPOLOGIES)


def make_topology(name: str, n_endpoints: int) -> Topology:
    """Build a registered topology at ``n_endpoints`` endpoints."""
    try:
        factory = TOPOLOGIES[name.lower()]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; choose from {topology_names()}"
        ) from None
    return factory(n_endpoints)


# -- DES cross-validation ---------------------------------------------------


def crossvalidate_topology(
    topology: Topology,
    packets_per_pair: int = 32,
    seed: int = 0,
) -> dict:
    """Replay the topology's pairwise pattern on its DES fabric and
    compare against the closed-form prediction.

    Every endpoint streams ``packets_per_pair`` max-size packets to its
    partner (disjoint directed paths on switched fabrics; the shared hub
    serializes everyone).  The prediction prices exactly what the DES
    executes — per-link cut-through serialization plus per-hop stage
    latency, with the hub paying the whole cluster's volume — so the
    relative error is the wiring/contention model's honesty check.

    Returns ``{"des_s", "predicted_s", "rel_err", ...}``.
    """
    from repro.sim import Engine
    from repro.network.packet import MAX_PAYLOAD_WORDS, Packet

    engine = Engine()
    fabric = topology.build_fabric(engine, seed=seed)
    pairs = topology.crossval_pairs()
    expected = len(pairs) * packets_per_pair
    got = {"count": 0, "last": 0.0}

    def sink(pkt: Packet) -> None:
        got["count"] += 1
        got["last"] = engine.now

    for ep in range(topology.n_endpoints):
        fabric.attach_endpoint(ep, sink)
    words = list(range(MAX_PAYLOAD_WORDS))
    for src, dst in pairs:
        for k in range(packets_per_pair):
            fabric.inject(Packet(src=src, dst=dst, payload_words=list(words)))
    engine.run()
    if got["count"] != expected:
        raise TopologyError(
            f"{topology.name}: DES delivered {got['count']} of "
            f"{expected} packets"
        )
    wire = (2 + MAX_PAYLOAD_WORDS) * 4
    t_ser = wire / topology.link_bandwidth
    if topology.shared_medium:
        # Every packet serializes through the one medium; the last head
        # lands one stage after its transmission slot starts.
        predicted = (expected - 1) * t_ser + topology.stage_latency
    else:
        hops = max(topology.hop_distance(s, d) for s, d in pairs)
        # Link-disjoint streams: the last head leaves its injection link
        # after (K-1) serializations and crosses `hops` stages.
        predicted = (packets_per_pair - 1) * t_ser + hops * topology.stage_latency
    des_s = got["last"]
    rel = abs(des_s - predicted) / des_s if des_s else 0.0
    return {
        "topology": topology.name,
        "n_endpoints": topology.n_endpoints,
        "packets": expected,
        "des_s": des_s,
        "predicted_s": predicted,
        "rel_err": rel,
    }
