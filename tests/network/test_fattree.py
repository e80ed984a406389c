"""Tests for the Arctic fat-tree topology, routing and ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.network.errors import EndpointCountError
from repro.network import FatTree, FatTreeParams
from repro.network.fattree import _mix32, down_port_target, up_port_target
from repro.network.packet import Packet, Priority
from repro.network.router import ARCTIC_STAGE_LATENCY


def build(n=16, **kw):
    eng = Engine()
    ft = FatTree(eng, n, FatTreeParams(**kw)) if kw else FatTree(eng, n)
    inbox = {ep: [] for ep in range(n)}
    for ep in range(n):
        ft.attach_endpoint(ep, lambda p, ep=ep: inbox[ep].append(p))
    return eng, ft, inbox


def test_invalid_sizes_rejected():
    eng = Engine()
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            FatTree(eng, bad)


def test_router_count_per_level():
    _, ft, _ = build(16)
    assert len(ft.routers) == 4 * 8  # log2 N levels
    for lvl in range(1, 5):
        count = sum(1 for r in ft.routers if r.name.startswith(f"R{lvl}."))
        assert count == 8  # N/2 routers per level


def test_wiring_up_down_inverse():
    """Descending the down port you arrived by returns to the same router."""
    _, ft, _ = build(16)
    keys = {tuple(int(x) for x in r.name[1:].split(".")) for r in ft.routers}
    for l, p, j in keys:
        if l >= 2:
            for c in (0, 1):
                child = (l - 1, 2 * p + c, j % (1 << (l - 2)))
                assert child in keys, f"missing child of {(l, p, j)}"


def test_all_pairs_delivery():
    eng, ft, inbox = build(8)
    for s in range(8):
        for d in range(8):
            if s == d:
                continue
            ft.inject(Packet(src=s, dst=d, payload_words=[s, d]))
    eng.run()
    for d in range(8):
        srcs = sorted(p.src for p in inbox[d])
        assert srcs == sorted(s for s in range(8) if s != d)


def test_packet_hops_equals_twice_lca_level():
    eng, ft, inbox = build(16)
    cases = [(0, 1, 1), (0, 2, 2), (0, 4, 3), (0, 15, 4), (5, 4, 1)]
    for s, d, lca in cases:
        ft.inject(Packet(src=s, dst=d, payload_words=[0, 0]))
    eng.run()
    for s, d, lca in cases:
        (pkt,) = [p for p in inbox[d] if p.src == s]
        # Routers visited: ascend through lca routers, descend through
        # lca-1 more (the top router serves both directions).
        assert pkt.hops == 2 * lca - 1
        assert ft.path_links(s, d) == 2 * lca


def test_head_latency_matches_formula():
    eng, ft, inbox = build(16)
    ft.inject(Packet(src=0, dst=15, payload_words=[0, 0]))
    eng.run()
    (pkt,) = inbox[15]
    expected = ft.path_links(0, 15) * ARCTIC_STAGE_LATENCY
    assert pkt.recv_time == pytest.approx(expected, rel=1e-9)


def test_max_distance_head_latency_is_1_2us_for_16_endpoints():
    """8 links x 0.15 us = 1.2 us; + 16 B serialization ~= the paper's
    1.3 us measured network latency for 8-byte-payload messages."""
    _, ft, _ = build(16)
    assert ft.head_latency(0, 15) == pytest.approx(1.2e-6)


def test_fifo_ordering_same_pair_deterministic_uproute():
    eng, ft, inbox = build(16)

    def blast():
        for i in range(50):
            ft.inject(Packet(src=3, dst=12, payload_words=[i, 0]))
            yield eng.timeout(1e-9)

    eng.process(blast())
    eng.run()
    seq = [p.payload_words[0] for p in inbox[12]]
    assert seq == list(range(50))


def test_random_uproute_still_delivers_everything():
    eng, ft, inbox = build(16, seed=42)
    for i in range(100):
        ft.inject(Packet(src=0, dst=9, payload_words=[i, 0], random_uproute=True))
    eng.run()
    assert sorted(p.payload_words[0] for p in inbox[9]) == list(range(100))


def test_corrupt_packet_dropped_at_first_router():
    eng, ft, inbox = build(8)
    bad = Packet(src=0, dst=5, payload_words=[1, 2])
    bad.corrupt = True
    ft.inject(bad)
    good = Packet(src=0, dst=5, payload_words=[3, 4])
    ft.inject(good)
    eng.run()
    assert len(inbox[5]) == 1
    assert inbox[5][0].payload_words == [3, 4]
    assert ft.total_crc_errors() == 1


def test_high_priority_overtakes_queued_low():
    eng, ft, inbox = build(4)
    # Saturate the 0->3 path with large low-priority packets, then inject
    # a high-priority packet; it must be delivered before the queued tail.
    for i in range(10):
        ft.inject(Packet(src=0, dst=3, payload_words=[0] * 22, tag=i))
    hi = Packet(src=0, dst=3, payload_words=[7, 7], tag=100, priority=Priority.HIGH)
    ft.inject(hi)
    eng.run()
    order = [p.tag for p in inbox[3]]
    # High priority cannot preempt the in-flight packet but must bypass
    # the rest of the queue.
    assert order.index(100) <= 1
    assert sorted(order) == sorted(list(range(10)) + [100])


def test_self_send_loopback():
    eng, ft, inbox = build(4)
    ft.inject(Packet(src=2, dst=2, payload_words=[9, 9]))
    eng.run()
    assert len(inbox[2]) == 1
    assert inbox[2][0].hops == 0


def test_loopback_is_stamped_with_its_send_time():
    """A loopback injected at t = 5 us is sent and received at 5 us: a
    latency of zero, not of the injection time."""
    eng, ft, inbox = build(4)
    eng.schedule(5e-6, ft.inject, Packet(src=2, dst=2, payload_words=[9, 9]))
    eng.run()
    (pkt,) = inbox[2]
    assert pkt.send_time == pkt.recv_time == 5e-6


def test_bisection_counts():
    _, ft, _ = build(16)
    assert ft.topology.bisection_links() == 8
    assert ft.topology.bisection_bandwidth() == pytest.approx(8 * 2 * 150e6)
    assert ft.topology.paper_bisection_bandwidth() == pytest.approx(2 * 16 * 150e6)


def test_destination_out_of_range_rejected():
    eng, ft, _ = build(4)
    with pytest.raises(ValueError):
        ft.inject(Packet(src=0, dst=7, payload_words=[0, 0]))


@given(
    n_exp=st.integers(min_value=1, max_value=5),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=31)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=30, deadline=None)
def test_property_any_topology_delivers_all(n_exp, pairs):
    n = 2**n_exp
    eng, ft, inbox = build(n)
    sent = {d: [] for d in range(n)}
    for s, d in pairs:
        s, d = s % n, d % n
        if s == d:
            continue
        ft.inject(Packet(src=s, dst=d, payload_words=[s, d]))
        sent[d].append(s)
    eng.run()
    for d in range(n):
        assert sorted(p.src for p in inbox[d]) == sorted(sent[d])


@given(
    s=st.integers(min_value=0, max_value=15),
    d=st.integers(min_value=0, max_value=15),
)
def test_property_path_links_symmetric(s, d):
    _, ft, _ = build(16)
    assert ft.path_links(s, d) == ft.path_links(d, s)
    if s != d:
        assert ft.path_links(s, d) >= 2


# -- endpoint-count boundary -------------------------------------------------


def test_invalid_sizes_raise_named_error():
    """Non-power-of-two endpoint counts are rejected with the named
    EndpointCountError (a ValueError) that cites the offending count."""
    eng = Engine()
    for bad in (0, 1, 3, 6, 12, 100):
        with pytest.raises(EndpointCountError) as exc:
            FatTree(eng, bad)
        assert exc.value.n_endpoints == bad
        assert "power-of-two" in str(exc.value)
        assert str(bad) in str(exc.value)


# -- wiring bijection at 1K/4K endpoints (pure closed forms) -----------------


def _router_ids(n):
    levels = n.bit_length() - 1
    for l in range(1, levels + 1):
        for p in range(n >> l):
            for j in range(1 << (l - 1)):
                yield (l, p, j)


@pytest.mark.parametrize("n", [1024, 4096])
def test_wiring_bijection_closed_form(n):
    """Every down port pairs with exactly one up port of its child (and
    vice versa), level-1 down ports cover every endpoint exactly once,
    and the port pairing is a bijection at N=1024 and N=4096."""
    levels = n.bit_length() - 1
    endpoints_seen = []
    child_up_slots = set()  # (child router, up port) consumed by a parent
    for key in _router_ids(n):
        l, p, j = key
        for c in (0, 1):
            kind, target = down_port_target(n, l, p, j, c)
            if l == 1:
                assert kind == "ep"
                endpoints_seen.append(target)
                continue
            assert kind == "router"
            # exactly one up port of the child must point back here
            backs = [
                u
                for u in (0, 1)
                if up_port_target(n, *target, u) == ("router", key)
            ]
            assert backs == [j >> (l - 2)]
            slot = (target, backs[0])
            assert slot not in child_up_slots, f"double-wired {slot}"
            child_up_slots.add(slot)
    # level-1 down ports hit each endpoint exactly once
    assert sorted(endpoints_seen) == list(range(n))
    # every up port of every non-top router is consumed exactly once
    expected_slots = {
        (key, u) for key in _router_ids(n) if key[0] < levels for u in (0, 1)
    }
    assert child_up_slots == expected_slots
    # and the reverse direction: each up port lands on an existing router
    # whose down port c returns to the child
    ids = set(_router_ids(n))
    for key in _router_ids(n):
        l, p, j = key
        for u in (0, 1):
            up = up_port_target(n, l, p, j, u)
            if l == levels:
                assert up is None
                continue
            kind, parent = up
            assert kind == "router" and parent in ids
            pl, pp, pj = parent
            kind, back = down_port_target(n, *parent, p & 1)
            assert (kind, back) == ("router", key)


def _walk_route(n, src, dst, seed=0, inject_seq=0, random_uproute=False):
    """Replay the router logic over the pure wiring forms; returns the
    number of links traversed (injection + internal + delivery)."""
    if src == dst:
        return 0
    links = 1  # injection link into the leaf router
    cur = (1, src // 2, 0)
    h = _mix32(seed, src, dst, inject_seq)
    while True:
        l, p, j = cur
        if (p << l) <= dst < ((p + 1) << l):  # dst inside this subtree
            kind, target = down_port_target(n, l, p, j, (dst >> (l - 1)) & 1)
            links += 1
            if kind == "ep":
                assert target == dst
                return links
            cur = target
        else:
            u = (
                (h >> ((l - 1) % 32)) & 1
                if random_uproute
                else (src >> (l - 1)) & 1
            )
            kind, cur = up_port_target(n, l, p, j, u)
            links += 1
            assert kind == "router"


@pytest.mark.parametrize("n", [1024, 4096])
def test_hop_counts_match_closed_form(n):
    """Walking the wiring router-by-router lands on the destination in
    exactly 2*lca links — the path_links closed form — for both the
    deterministic and the randomized up-route, at N=1024/4096."""
    half, quarter = n // 2, n // 4
    pairs = [
        (0, 1), (0, n - 1), (1, 0), (half - 1, half), (3, 3 ^ quarter),
        (n - 1, 0), (7, 7 ^ half), (half, 2), (quarter, quarter + 3),
    ]
    for src, dst in pairs:
        lca = (src ^ dst).bit_length()
        assert _walk_route(n, src, dst) == 2 * lca
        for inject_seq in range(4):
            assert (
                _walk_route(
                    n, src, dst, seed=42, inject_seq=inject_seq,
                    random_uproute=True,
                )
                == 2 * lca
            )


# -- random-uproute determinism ---------------------------------------------


def _run_random_workload(seed):
    """A mixed random_uproute workload; returns (per-dst recv times,
    per-link packet counts) — together they identify the paths taken."""
    eng, ft, inbox = build(16, seed=seed)
    for i in range(60):
        src, dst = (7 * i) % 16, (3 * i + 5) % 16
        if src == dst:
            dst = (dst + 1) % 16
        ft.inject(
            Packet(src=src, dst=dst, payload_words=[i, 0], random_uproute=True)
        )
    eng.run()
    times = {
        d: [(p.src, p.payload_words[0], p.recv_time) for p in box]
        for d, box in inbox.items()
    }
    link_counts = {link.name: link.stats.packets for link in ft.iter_links()}
    return times, link_counts


def test_random_uproute_determinism():
    """Documented guarantee: identical (seed, workload) -> identical
    paths.  The route choice is a pure hash of (seed, src, dst,
    inject_seq), so two runs agree link-for-link and time-for-time."""
    times_a, links_a = _run_random_workload(seed=7)
    times_b, links_b = _run_random_workload(seed=7)
    assert times_a == times_b
    assert links_a == links_b
    # a different seed re-randomizes the up-paths (same deliveries,
    # different link utilization)
    times_c, links_c = _run_random_workload(seed=8)
    assert links_c != links_a
    assert {d: sorted(v[:2] for v in vs) for d, vs in times_c.items()} == {
        d: sorted(v[:2] for v in vs) for d, vs in times_a.items()
    }
