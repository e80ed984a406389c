"""The Arctic Switch Fabric fat tree (paper Section 2.2) as data: its
wiring and its up/down route, which
:class:`~repro.network.topology.FatTreeTopology` hands to the one DES
:class:`~repro.network.fabrics.Fabric`.

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

Routing (:func:`up_down_route`): ascend — up port ``u`` at level ``l``
is bit ``l-1`` of the *up bits* — until the destination lies in the
current subtree, then descend deterministically by the destination's
address bits.  The up bits are the source address (a fixed function of
the source, preserving the per-path FIFO guarantee) or, when the packet
sets the *random uproute* bit, a per-packet hash: one rule, two bit
sources.

Determinism guarantee: random-uproute choices are a pure hash of
``(fabric seed, src, dst, per-source injection sequence)`` — no
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

from typing import List, Optional, Tuple


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


# -- enumeration: routers level by level, links inject / up / down ----------
#
# Router (l, p, j) is number (l-1)*N/2 + p*2**(l-1) + j.  Link ids: the N
# injection links, then two up links per non-top router, then two down
# links per router, each block in router order — so up port u of (l, p, j)
# is link N + 2*router + u = l*N + (p << l) + 2*j + u, and down port c is
# the same offset into the block that starts at levels*N.


def fat_tree_wiring(n: int) -> Tuple[List[str], List[Tuple[str, Optional[int]]]]:
    """Router names and ``(link name, head)`` pairs of an ``n``-endpoint
    tree, in enumeration order (``head``: router number, ``~e`` for the
    link that delivers to endpoint ``e``)."""
    levels = n.bit_length() - 1
    half = n // 2
    keys = [
        (l, p, j)
        for l in range(1, levels + 1)
        for p in range(n >> l)
        for j in range(1 << (l - 1))
    ]
    names = [f"R{l}.{p}.{j}" for l, p, j in keys]

    def number(key: tuple) -> int:
        l, p, j = key
        return (l - 1) * half + (p << (l - 1)) + j

    links: List[Tuple[str, Optional[int]]] = [
        (f"niu{ep}^", ep // 2) for ep in range(n)
    ]
    for name, (l, p, j) in zip(names, keys):
        if l < levels:
            for u in (0, 1):
                links.append(
                    (f"{name}^u{u}", number(up_port_target(n, l, p, j, u)[1]))
                )
    for name, (l, p, j) in zip(names, keys):
        for c in (0, 1):
            kind, target = down_port_target(n, l, p, j, c)
            if kind == "ep":
                links.append((f"{name}_e{target}", ~target))
            else:
                links.append((f"{name}_d{c}", number(target)))
    return names, links


def up_down_route(n: int, src: int, dst: int, up_bits: int) -> Tuple[int, ...]:
    """Link ids from ``src`` to ``dst`` in an ``n``-endpoint tree: the
    injection link, up to the least common ancestor level taking up port
    ``(up_bits >> (l-1)) & 1`` at level ``l``, then down by ``dst``'s
    address bits."""
    if src == dst:
        return ()
    lca = (src ^ dst).bit_length()
    # the router reached at level l is (l, src >> l, up_bits mod 2**(l-1))
    route = [src]
    for l in range(1, lca):
        route.append(
            l * n + ((src >> l) << l)
            + 2 * (up_bits & ((1 << (l - 1)) - 1)) + ((up_bits >> (l - 1)) & 1)
        )
    # descending from (lca, src >> lca, j), level l is (l, dst >> l, j mod 2**(l-1))
    down = (n.bit_length() - 1) * n
    for l in range(lca, 0, -1):
        route.append(
            down + (l - 1) * n + ((dst >> l) << l)
            + 2 * (up_bits & ((1 << (l - 1)) - 1)) + ((dst >> (l - 1)) & 1)
        )
    return tuple(route)
