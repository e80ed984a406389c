"""Property-based stress tests of the fabric, on every registered
machine shape: conservation under load, and the route a packet takes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import Packet
from repro.network.topology import make_topology, topology_names
from repro.sim import Engine

from _reference_routing import reference_for


def build(name, n, seed=0):
    """A fabric of shape ``name`` with a recording inbox per endpoint."""
    eng = Engine()
    fabric = make_topology(name, n).build_fabric(eng, seed=seed)
    inbox = {ep: [] for ep in range(n)}
    for ep in range(n):
        fabric.attach_endpoint(ep, lambda p, ep=ep: inbox[ep].append(p))
    return eng, fabric, inbox


def run_traffic(name, n, flows, random_route=False, seed=0):
    """Inject `flows` = [(src, dst, n_packets, words)] and run to quiescence."""
    eng, fabric, inbox = build(name, n, seed)
    sent = 0
    for src, dst, count, words in flows:
        for i in range(count):
            fabric.inject(
                Packet(
                    src=src,
                    dst=dst,
                    payload_words=[i] * max(2, words),
                    tag=i % 2048,
                    random_uproute=random_route,
                )
            )
            sent += 1
    eng.run()
    return fabric, inbox, sent


@given(
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=2, max_value=22),
        ),
        min_size=1,
        max_size=8,
    ),
    random_route=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_property_every_injected_packet_delivered_once(flows, random_route):
    """No loss, no duplication, regardless of traffic mix or routing."""
    for name in topology_names():
        fabric, inbox, sent = run_traffic(name, 16, flows, random_route)
        delivered = sum(len(v) for v in inbox.values())
        assert delivered == sent, name
        assert fabric.total_crc_errors() == 0, name


@given(
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_per_flow_fifo_deterministic_routing(flows):
    """With deterministic up-routing, each (src, dst) flow stays FIFO."""
    for name in topology_names():
        eng, fabric, inbox = build(name, 8)
        seq = {}
        for src, dst, count in flows:
            for _ in range(count):
                i = seq.setdefault((src, dst), 0)
                fabric.inject(
                    Packet(src=src, dst=dst, payload_words=[i, 0], data=(src, dst, i))
                )
                seq[(src, dst)] = i + 1
        eng.run()
        for dst, packets in inbox.items():
            per_flow = {}
            for p in packets:
                s, d, i = p.data
                assert d == dst
                last = per_flow.get(s, -1)
                assert i == last + 1, f"{name}: flow {s}->{d} reordered"
                per_flow[s] = i


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_property_link_byte_accounting_balances(seed):
    """Bytes crossing the links equal wire bytes of all packets times
    their link counts — the fabric neither creates nor destroys
    traffic."""
    rng = np.random.default_rng(seed)
    flows = [
        (int(rng.integers(0, 16)), int(rng.integers(0, 16)), 3, 4) for _ in range(4)
    ]
    for name in topology_names():
        fabric, inbox, sent = run_traffic(name, 16, flows, seed=seed)
        total_link_bytes = sum(link.stats.bytes for link in fabric.iter_links())
        expected = 0
        for dst, packets in inbox.items():
            for p in packets:
                if p.src == dst:
                    continue  # loopback never touched the fabric
                expected += p.wire_bytes * fabric.path_links(p.src, dst)
        assert total_link_bytes == expected, name


# -- the route is data: what a packet crosses == Topology.route -------------


def sampled_pairs(n, count=40):
    rng = random.Random(n)
    pairs = [(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (n // 2 - 1, n // 2)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    return pairs


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", topology_names())
def test_a_packet_crosses_exactly_its_route(name, n):
    """One packet at a time: the links whose packet count rose are
    ``route(src, dst)``, as many as ``hop_distance`` says, and the
    per-router closures the fabrics used to carry pick the same next
    link at every hop (on the fat tree also for a random up-route)."""
    eng, fabric, inbox = build(name, n, seed=5)
    topo = fabric.topology
    routers, wires = topo.wiring()
    links = list(fabric.iter_links())
    assert [link.name for link in links] == [wire[0] for wire in wires]
    reference = reference_for(fabric)
    next_link = reference.route_fns()
    modes = (False, True) if name == "fattree" else (False,)
    for src, dst in sampled_pairs(n):
        route = topo.route(src, dst)
        assert (
            len(route) == topo.hop_distance(src, dst)
            == fabric.path_links(src, dst) == reference.path_links(src, dst)
        ), (src, dst)
        for random_uproute in modes:
            before = [link.stats.packets for link in links]
            pkt = Packet(src=src, dst=dst, random_uproute=random_uproute)
            fabric.inject(pkt)
            eng.run()
            assert inbox[dst].pop() is pkt and not inbox[dst]
            rose = [
                i for i, link in enumerate(links)
                if link.stats.packets - before[i]
            ]
            assert sum(link.stats.packets for link in links) - sum(before) == len(rose)
            assert rose == sorted(pkt.route), (src, dst)
            if random_uproute:
                assert len(pkt.route) == len(route)
            else:
                assert pkt.route == route, (src, dst)
            # hop by hop: the router a link leads to chooses the next one
            for here, there in zip(pkt.route, pkt.route[1:]):
                router = routers[wires[here][1]]
                assert next_link[router](pkt) is links[there], (src, dst, router)
            if src != dst:
                assert wires[pkt.route[-1]][1] in (~dst, None)


def test_torus_half_ring_tie_goes_the_way_that_does_not_wrap():
    """On an even ring the two ways around tie at half the ring; the
    route takes the one that does not cross the wraparound link."""
    topo = make_topology("torus2d", 16)  # 4 x 4
    names = [name for name, _ in topo.wiring()[1]]
    assert [names[i] for i in topo.route(0, 2)] == [
        "niu0^", "T0.0+1", "T1.0+1", "T2_e",
    ]
    assert [names[i] for i in topo.route(2, 0)] == [
        "niu2^", "T2.0-1", "T1.0-1", "T0_e",
    ]
    # off the tie the shorter way wraps
    assert [names[i] for i in topo.route(0, 3)] == ["niu0^", "T0.0-1", "T3_e"]


@pytest.mark.parametrize("name", topology_names())
def test_source_out_of_range_rejected(name):
    """A packet naming a source the fabric does not have is refused like
    one naming such a destination — not delivered on somebody else's
    injection link (``src=-1``), not an ``IndexError`` (``src=n``)."""
    eng, fabric, inbox = build(name, 8)
    for src in (-1, 8):
        with pytest.raises(ValueError, match="source"):
            fabric.inject(Packet(src=src, dst=0))
    assert eng.empty() and not any(inbox.values())
    assert fabric._inject_seq == [0] * 8
