"""The Arctic Switch Fabric fat-tree topology (paper Section 2.2).

Construction: for ``N = 2**n`` endpoints, the tree has ``n`` router
levels with ``N/2`` radix-4 routers each (2 down ports + 2 up ports;
top-level routers leave their up ports unused).  The wiring is the
standard butterfly/fat-tree bijection:

* router ``(l, p, j)`` — level ``l`` in 1..n, subtree ``p`` (covering
  endpoints ``[p*2**l, (p+1)*2**l)``), index ``j`` in ``0..2**(l-1)-1``;
* down port ``c`` of ``(l, p, j)`` connects to ``(l-1, 2p+c, j mod 2**(l-2))``
  (or endpoint ``2p+c`` when ``l == 1``);
* equivalently, up port ``u`` of ``(l-1, p', j')`` connects to
  ``(l, p'//2, j' + u*2**(l-2))``.

Routing: ascend (choosing among equivalent up ports either by a fixed
function of the source — preserving the per-path FIFO guarantee — or
pseudo-randomly when the packet sets the *random uproute* bit) until the
destination lies in the current subtree, then descend deterministically
by the destination's address bits.

Determinism guarantee: random-uproute choices are a pure hash of
``(fabric seed, src, dst, per-source injection sequence, level)`` — no
shared RNG stream — so identical ``(seed, workload)`` pairs reproduce
identical packet paths regardless of event interleaving, how many other
fabrics share the process, or what consumed the global ``random`` state
(see ``tests/network/test_fattree.py::test_random_uproute_determinism``).

End-to-end head latency over ``h`` links is ``h * 0.15 us`` (cut-through)
plus one serialization time at the receiving endpoint; for the
maximum-distance pair in a 16-endpoint tree that is 8 links = 1.2 us,
matching the paper's measured 1.3 us user-to-user network latency once
endpoint serialization of a 16-byte packet (0.107 us) is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.sim import Engine
from repro.network.errors import EndpointCountError
from repro.network.fabrics import BaseFabric
from repro.network.packet import Packet
from repro.network.router import (
    ARCTIC_LINK_BANDWIDTH,
    ARCTIC_STAGE_LATENCY,
    ArcticRouter,
    Link,
)


@dataclass(frozen=True)
class FatTreeParams:
    """Tunable hardware parameters of the fabric."""

    link_bandwidth: float = ARCTIC_LINK_BANDWIDTH
    stage_latency: float = ARCTIC_STAGE_LATENCY
    seed: int = 0


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _mix32(*xs: int) -> int:
    """FNV-1a-style integer mix: cheap, stateless, stable across runs."""
    h = 0x811C9DC5
    for x in xs:
        h ^= x & 0xFFFFFFFF
        h = (h * 0x01000193) & 0xFFFFFFFF
        h ^= h >> 15
    return h


# -- pure wiring closed forms (exercised by the bijection tests) ------------


def down_port_target(
    n_endpoints: int, level: int, p: int, j: int, c: int
) -> tuple:
    """Where down port ``c`` of router ``(level, p, j)`` connects:
    ``("ep", e)`` at level 1, else ``("router", (level-1, p', j'))``."""
    if level == 1:
        return ("ep", 2 * p + c)
    return ("router", (level - 1, 2 * p + c, j % (1 << (level - 2))))


def up_port_target(n_endpoints: int, level: int, p: int, j: int, u: int) -> tuple:
    """Where up port ``u`` of router ``(level, p, j)`` connects:
    ``("router", (level+1, p', j'))``, or ``None`` at the top level."""
    levels = n_endpoints.bit_length() - 1
    if level >= levels:
        return None
    return ("router", (level + 1, p // 2, j + u * (1 << (level - 1))))


class FatTree(BaseFabric):
    """A full fat tree of Arctic routers serving ``n_endpoints`` NIUs.

    Endpoints attach via :meth:`attach_endpoint`, providing a sink callable
    invoked when a packet's head reaches the endpoint; the endpoint is
    responsible for adding its own drain/serialization time.
    """

    def __init__(self, engine: Engine, n_endpoints: int, params: Optional[FatTreeParams] = None) -> None:
        if not isinstance(n_endpoints, int) or not _is_pow2(n_endpoints) or n_endpoints < 2:
            raise EndpointCountError(
                n_endpoints, "a power-of-two endpoint count >= 2"
            )
        super().__init__(engine, n_endpoints, params or FatTreeParams())
        self.levels = n_endpoints.bit_length() - 1  # log2 N

        # routers[(l, p, j)]
        self.routers: dict[tuple[int, int, int], ArcticRouter] = {}
        for lvl in range(1, self.levels + 1):
            for p in range(self.n >> lvl):
                for j in range(1 << (lvl - 1)):
                    self.routers[(lvl, p, j)] = ArcticRouter(
                        engine, name=f"R{lvl}.{p}.{j}"
                    )

        # Wire links.  up_links[(l,p,j)][u] and down_links[(l,p,j)][c].
        self.up_links: dict[tuple[int, int, int], list[Link]] = {}
        self.down_links: dict[tuple[int, int, int], list[Link]] = {}

        for key, router in self.routers.items():
            l, p, j = key
            ups = []
            if l < self.levels:
                for u in (0, 1):
                    _, parent = up_port_target(self.n, l, p, j, u)
                    ups.append(
                        self._mk_link(self.routers[parent].receive, f"{router.name}^u{u}")
                    )
            self.up_links[key] = ups
            downs = []
            for c in (0, 1):
                kind, target = down_port_target(self.n, l, p, j, c)
                if kind == "ep":
                    downs.append(
                        self._mk_link(self._deliver[target], f"{router.name}_e{target}")
                    )
                else:
                    downs.append(
                        self._mk_link(self.routers[target].receive, f"{router.name}_d{c}")
                    )
            self.down_links[key] = downs
            router.route_fn = self._make_route_fn(key)

        for ep in range(self.n):
            leaf = (1, ep // 2, 0)
            self.inject_links.append(
                self._mk_link(self.routers[leaf].receive, f"niu{ep}^")
            )

    # -- routing --------------------------------------------------------

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

    # -- analysis -------------------------------------------------------

    def path_links(self, src: int, dst: int) -> int:
        """Number of links on the (deterministic) src->dst path."""
        if src == dst:
            return 0
        lca = (src ^ dst).bit_length()  # levels to ascend
        return 2 * lca

    def bisection_links(self) -> int:
        """Full-duplex links crossing the midline cut of the tree.

        Every left<->right path traverses the top level; each of the N/2
        top routers has one down port into each half, so the minimum cut
        is N/2 full-duplex links.
        """
        return self.n // 2

    def bisection_bandwidth(self) -> float:
        """Aggregate bytes/s across the bisection, both directions.

        Note: the paper quotes ``2 * N * 150 MB/s`` for an N-endpoint full
        fat tree, i.e. counting each crossing link's two directions and
        both halves' uplink stages; the structural min-cut of this
        construction gives ``N/2`` duplex links = ``N * 150 MB/s``.  Both
        numbers are exposed (see :meth:`paper_bisection_bandwidth`).
        """
        return self.bisection_links() * 2 * self.params.link_bandwidth

    def paper_bisection_bandwidth(self) -> float:
        """The figure quoted in Section 2.2: ``2 * N * 150 MB/s``."""
        return 2 * self.n * self.params.link_bandwidth

    # -- fault accounting ----------------------------------------------

    def _internal_links(self) -> Iterable[Link]:
        for links in self.up_links.values():
            yield from links
        for links in self.down_links.values():
            yield from links

    def _delivery_link(self, ep: int) -> Link:
        leaf = (1, ep // 2, 0)
        return self.down_links[leaf][ep % 2]

    def _iter_routers(self) -> Iterable[ArcticRouter]:
        return iter(self.routers.values())
