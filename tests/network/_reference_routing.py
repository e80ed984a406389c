"""The per-router routing closures the DES fabrics carried until a
machine shape stated its route once (``Topology.route``), kept verbatim
as the differential oracle.

Until ISSUE 21 the only place a packet's actual path existed was a
closure per router: ``FatTree._make_route_fn`` (up/down),
``GridFabric._make_route_fn`` (dimension-ordered),
``CrossbarFabric._make_node_route_fn`` / ``_make_xbar_route_fn``, beside
a fabric-side hop count each (``path_links``, ``grid_distance``,
``differing_axes``).  The bodies below are those methods unchanged; only
the link tables they index (``up_links``, ``down_links``,
``deliver_links``, ``neighbor_links``, ``xbar_down``) are rebuilt here,
by link *name*, from a live fabric, so the oracle shares no routing
arithmetic with ``src/``.

``reference_for(fabric).route_fns()`` gives ``{router name: route(pkt)
-> Link}``, ``.path_links(src, dst)`` the old fabric-side count.
"""

from typing import Callable, Dict, List, Sequence, Tuple

from repro.network.fattree import _mix32
from repro.network.packet import Packet
from repro.network.router import Link


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


class ReferenceFatTree:
    """``FatTree``'s routing closure and hop count, as they were."""

    def __init__(self, fabric) -> None:
        by_name = {link.name: link for link in fabric.iter_links()}
        self.n = fabric.n
        self.levels = self.n.bit_length() - 1
        self.params = fabric.params
        self.keys = [
            (lvl, p, j)
            for lvl in range(1, self.levels + 1)
            for p in range(self.n >> lvl)
            for j in range(1 << (lvl - 1))
        ]
        self.up_links: Dict[tuple, List[Link]] = {}
        self.down_links: Dict[tuple, List[Link]] = {}
        for l, p, j in self.keys:
            name = f"R{l}.{p}.{j}"
            self.up_links[(l, p, j)] = (
                [by_name[f"{name}^u{u}"] for u in (0, 1)] if l < self.levels else []
            )
            self.down_links[(l, p, j)] = [
                by_name[f"{name}_e{2 * p + c}" if l == 1 else f"{name}_d{c}"]
                for c in (0, 1)
            ]

    def route_fns(self) -> Dict[str, Callable[[Packet], Link]]:
        return {
            f"R{l}.{p}.{j}": self._make_route_fn((l, p, j))
            for l, p, j in self.keys
        }

    def _make_route_fn(self, key: tuple[int, int, int]) -> Callable[[Packet], Link]:
        l, p, j = key
        lo = p << l
        hi = (p + 1) << l
        seed = self.params.seed

        def route(pkt: Packet) -> Link:
            if lo <= pkt.dst < hi:
                c = (pkt.dst >> (l - 1)) & 1
                return self.down_links[key][c]
            if pkt.random_uproute:
                # Stateless per-packet hash (not a shared RNG stream):
                # reproducible for identical (seed, workload) pairs no
                # matter how events interleave or what else runs in the
                # process; distinct levels draw distinct bits.
                h = _mix32(seed, pkt.src, pkt.dst, pkt.inject_seq)
                u = (h >> ((l - 1) % 32)) & 1
            else:
                # Fixed function of the source: keeps all messages of a
                # (src, dst) pair on one path => FIFO ordering holds.
                u = (pkt.src >> (l - 1)) & 1
            return self.up_links[key][u]

        return route

    def path_links(self, src: int, dst: int) -> int:
        """Number of links on the (deterministic) src->dst path."""
        if src == dst:
            return 0
        lca = (src ^ dst).bit_length()  # levels to ascend
        return 2 * lca


class ReferenceGrid:
    """``GridFabric``'s routing closure and hop count, as they were."""

    def __init__(self, fabric) -> None:
        by_name = {link.name: link for link in fabric.iter_links()}
        self.n = fabric.n
        self.dims = fabric.topology.dims
        self.wrap = fabric.topology.wrap
        self.kind = kind = "T" if self.wrap else "M"
        self.deliver_links = [by_name[f"{kind}{i}_e"] for i in range(self.n)]
        #: neighbor_links[node][(axis, step)] with step in (+1, -1).
        self.neighbor_links: List[Dict[Tuple[int, int], Link]] = [
            {
                (axis, step): by_name[f"{kind}{i}.{axis}{step:+d}"]
                for axis in range(len(self.dims))
                for step in (1, -1)
                if f"{kind}{i}.{axis}{step:+d}" in by_name
            }
            for i in range(self.n)
        ]

    def route_fns(self) -> Dict[str, Callable[[Packet], Link]]:
        return {
            f"{self.kind}{i}": self._make_route_fn(i) for i in range(self.n)
        }

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


class ReferenceCrossbar:
    """``CrossbarFabric``'s two routing closures and hop count, as they
    were."""

    def __init__(self, fabric) -> None:
        by_name = {link.name: link for link in fabric.iter_links()}
        self.n = fabric.n
        self.dims = dims = fabric.topology.dims
        self.deliver_links = [by_name[f"X{i}_e"] for i in range(self.n)]
        #: up links node -> crossbar, one per axis: up_links[node][axis].
        self.up_links = [
            [by_name[f"X{i}^a{axis}"] for axis in range(len(dims))]
            for i in range(self.n)
        ]
        #: down links from a crossbar to each node on its line, keyed by
        #: (axis, line id) -> {axis coordinate -> Link}.
        self.xbar_down: Dict[Tuple[int, int], Dict[int, Link]] = {}
        for axis, d in enumerate(dims):
            for i in range(self.n):
                line = self._line_id(i, axis)
                self.xbar_down.setdefault((axis, line), {
                    c: by_name[f"XB{axis}.{line}_c{c}"] for c in range(d)
                })

    def route_fns(self) -> Dict[str, Callable[[Packet], Link]]:
        fns = {f"X{i}": self._make_node_route_fn(i) for i in range(self.n)}
        for axis, line in self.xbar_down:
            fns[f"XB{axis}.{line}"] = self._make_xbar_route_fn(axis, line)
        return fns

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


class ReferenceHub:
    """``HubFabric`` had no router: the one link dispatched by ``dst``."""

    def __init__(self, fabric) -> None:
        pass

    def route_fns(self) -> Dict[str, Callable[[Packet], Link]]:
        return {}

    def path_links(self, src: int, dst: int) -> int:
        """One hop for every distinct pair: the medium is flat."""
        return 0 if src == dst else 1


_REFERENCES = {
    "fattree": ReferenceFatTree,
    "mesh2d": ReferenceGrid,
    "torus2d": ReferenceGrid,
    "torus3d": ReferenceGrid,
    "hypercrossbar": ReferenceCrossbar,
    "ethernet": ReferenceHub,
}


def reference_for(fabric):
    """The old fabric class's routing, indexed over ``fabric``'s links."""
    return _REFERENCES[fabric.topology.name](fabric)
