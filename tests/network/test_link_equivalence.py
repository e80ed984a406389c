"""Differential test: the callback :class:`~repro.network.router.Link`
against the generator transmitter it replaced (``_reference_link.py``).

Each seeded mix drives the same traffic and the same fault schedule
through two fabrics that differ only in the link class, and demands
that every endpoint receives the same packets, in the same order, at
bit-identical ``recv_time``, with equal per-link ``LinkStats``, queue
depths and ``fault_counters()`` — plus packet conservation (ROADMAP 5b)
on both.

Exact float ties are the norm here, not a corner: on a cut-through
pipeline the next packet's head arrives the very instant the previous
tail leaves.  The generator picked its next packet two relay events
after the serialization timeout, i.e. after the arrivals of that
instant; the callback link gets the same arbitration by ending its
serialization with ``Engine.schedule_late``.  What is *not* compared is
the interleaving of different endpoints' callbacks inside one instant
(1 mix in 1200 swaps two such deliveries).
"""

import random

import pytest

import repro.network.fabrics as fabrics_mod
from repro.network.fabrics import FabricParams, GridFabric, HubFabric
from repro.network.fattree import FatTree, FatTreeParams
from repro.network.packet import Packet, Priority
from repro.network.router import FAULT_CORRUPT, FAULT_DROP, Link
from repro.sim import Engine

from _reference_link import ReferenceLink

N = 16
SEEDS = range(28)
#: injection instants come from a coarse grid so that packets from
#: different sources really do reach a shared link at the same float
GRID_S = 0.25e-6


def make_fabric(kind, engine, seed):
    if kind == "fattree":
        return FatTree(engine, N, FatTreeParams(seed=seed))
    if kind == "torus":
        return GridFabric(engine, (4, 4), wrap=True, params=FabricParams(seed=seed))
    return HubFabric(engine, N, FabricParams(seed=seed))


def fault_hook(rng, p_drop, p_corrupt):
    def hook(_pkt):
        u = rng.random()
        if u < p_drop:
            return FAULT_DROP
        if u < p_drop + p_corrupt:
            return FAULT_CORRUPT
        return None

    return hook


def run_mix(kind, seed, link_cls, monkeypatch):
    """One seeded traffic mix on one fabric built from ``link_cls``;
    returns everything an observer could tell the two link classes
    apart by."""
    monkeypatch.setattr(fabrics_mod, "Link", link_cls)
    rng = random.Random(f"{kind}:{seed}")
    engine = Engine()
    fabric = make_fabric(kind, engine, seed)
    links = list(fabric.iter_links())
    assert all(type(lk) is link_cls for lk in links)
    inbox = {ep: [] for ep in range(N)}
    for ep in range(N):
        fabric.attach_endpoint(
            ep,
            lambda p, box=inbox[ep]: box.append(
                (p.data, p.src, int(p.priority), p.hops, p.send_time, p.recv_time)
            ),
        )

    # -- per-link conditions, all seeded ---------------------------------
    for link in rng.sample(links, k=max(1, len(links) // 6)):
        link.fault_hook = fault_hook(
            random.Random(rng.random()), rng.choice((0.0, 0.1, 0.3)), rng.choice((0.0, 0.1))
        )
    for link in rng.sample(links, k=max(1, len(links) // 8)):
        link.rate_factor = rng.choice((0.25, 0.5, 0.9))
    for link in rng.sample(links, k=max(1, len(links) // 8)):
        link.latency_extra = rng.choice((0.1e-6, 0.37e-6))
    for link in rng.sample(links, k=max(1, len(links) // 8)):
        jitter = random.Random(rng.random())
        link.delay_hook = lambda _p, j=jitter: j.uniform(-0.05e-6, 0.3e-6)
    for _ in range(rng.randrange(1, 5)):  # finite stalls
        engine.schedule_at(
            rng.randrange(0, 40) * GRID_S, rng.choice(links).stall,
            rng.choice((0.2e-6, 1.0e-6, 3.3e-6)),
        )
    if seed % 3 == 0:  # a link dies mid-stream
        engine.schedule_at(
            rng.randrange(4, 30) * GRID_S, rng.choice(links).stall, float("inf")
        )
    if seed % 4 == 1:  # an endpoint crashes mid-stream
        engine.schedule_at(
            rng.randrange(4, 30) * GRID_S, fabric.kill_endpoint, rng.randrange(N)
        )

    # -- traffic -----------------------------------------------------------
    injected = 0
    for burst in range(rng.randrange(20, 40)):
        when = rng.randrange(0, 40) * GRID_S
        src = rng.randrange(N)
        dst = rng.randrange(N)
        # several packets from one source at one instant (same inject
        # link), and a second source aiming at the same destination at
        # that instant (same delivery link)
        sources = [src] * rng.randrange(1, 5) + [rng.randrange(N)]
        for k, s in enumerate(sources):
            pkt = Packet(
                src=s, dst=dst,
                payload_words=[burst, k] + [0] * rng.randrange(0, 21),
                tag=burst % 2048,
                priority=rng.choice((Priority.LOW, Priority.LOW, Priority.HIGH)),
                random_uproute=rng.random() < 0.3,
                data=injected,
            )
            engine.schedule_at(when, fabric.inject, pkt)
            injected += 1
    engine.run()

    counters = fabric.fault_counters()
    queued = sum(link.queued for link in links)
    delivered = sum(len(box) for box in inbox.values())
    # ROADMAP 5b: nothing is created, nothing vanishes unaccounted
    assert injected == (
        delivered + counters["link_drops"] + counters["router_crc_drops"]
        + counters["blackholed"] + counters["source_drops"] + queued
    ), (kind, seed, link_cls.__name__, counters, queued)
    return {
        "inbox": inbox,
        "stats": {link.name: link.stats for link in links},
        "queued": {link.name: link.queued for link in links},
        "counters": counters,
        "now": engine.now,
        "injected": injected,
    }


@pytest.mark.parametrize("kind", ["fattree", "torus", "hub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_same_packets_same_order_same_times(kind, seed, monkeypatch):
    new = run_mix(kind, seed, Link, monkeypatch)
    ref = run_mix(kind, seed, ReferenceLink, monkeypatch)
    assert new["injected"] == ref["injected"]
    # every endpoint sees the same packets in the same order; tuple
    # equality on floats is bit equality (no nan in a recv_time)
    assert new["inbox"] == ref["inbox"]
    assert new["stats"] == ref["stats"]
    assert new["queued"] == ref["queued"]
    assert new["counters"] == ref["counters"]
    assert new["now"] == ref["now"]


def test_the_mixes_exercise_every_path(monkeypatch):
    """The equivalence above is only worth something if the mixes reach
    drops, CRC catches, blackholes, dead links, both priorities and real
    queueing — checked once, over all seeds, on the new link."""
    total = {"link_drops": 0, "link_corruptions": 0, "router_crc_drops": 0,
             "blackholed": 0, "queued": 0, "high": 0, "delivered": 0}
    for kind in ("fattree", "torus"):
        for seed in SEEDS:
            out = run_mix(kind, seed, Link, monkeypatch)
            for key in ("link_drops", "link_corruptions", "router_crc_drops", "blackholed"):
                total[key] += out["counters"][key]
            total["queued"] += sum(out["queued"].values())
            total["high"] += sum(s.high_priority_packets for s in out["stats"].values())
            for box in out["inbox"].values():
                total["delivered"] += len(box)
    assert all(v > 0 for v in total.values()), total


def test_high_priority_overtakes_queued_low_but_not_the_wire():
    """HIGH jumps the queue, never the packet already being serialized."""
    engine = Engine()
    order = []
    link = Link(engine, lambda p: order.append(p.data))
    link.send(Packet(src=0, dst=1, data="low0"))
    engine.run(until=0.0)  # low0 starts serializing
    for k in (1, 2):
        link.send(Packet(src=0, dst=1, data=f"low{k}"))
    link.send(Packet(src=0, dst=1, data="high", priority=Priority.HIGH))
    assert link.queued == 3  # the first LOW already owns the wire
    engine.run()
    assert order == ["low0", "high", "low1", "low2"]
    assert link.stats.high_priority_packets == 1


@pytest.mark.parametrize("link_cls", [Link, ReferenceLink])
def test_high_priority_in_a_batch_injected_before_the_run(link_cls, monkeypatch):
    """300 LOW + 1 HIGH handed to an idle fat tree in one instant, before
    the engine runs (``bench_sec41_fabric``): no LOW owns a wire yet, so
    the HIGH packet crosses at the zero-load head latency on both link
    classes.  Injected from inside the run, the first LOW of the instant
    already has the injection link and HIGH waits one serialization."""
    monkeypatch.setattr(fabrics_mod, "Link", link_cls)

    def high_latency(inside_run):
        engine = Engine()
        fabric = FatTree(engine, N)
        seen = {}
        for ep in range(N):
            fabric.attach_endpoint(ep, lambda p: seen.setdefault(p.priority, engine.now))
        batch = [Packet(src=0, dst=15, payload_words=[0] * 22, tag=i) for i in range(300)]
        batch.append(Packet(src=0, dst=15, payload_words=[1, 2], priority=Priority.HIGH))
        for pkt in batch:
            if inside_run:
                engine.schedule(0.0, fabric.inject, pkt)
            else:
                fabric.inject(pkt)
        engine.run()
        return seen[Priority.HIGH]

    assert high_latency(inside_run=False) == pytest.approx(8 * 0.15e-6, abs=1e-12)
    assert high_latency(inside_run=True) == pytest.approx(8 * 0.15e-6 + 96 / 150e6, abs=1e-12)


def test_dead_link_drops_one_and_holds_the_rest():
    engine = Engine()
    got = []
    link = Link(engine, got.append)
    link.stall(float("inf"))
    for _ in range(4):
        link.send(Packet(src=0, dst=1))
    engine.run()
    assert got == []
    assert link.stats.dropped == 1 and link.queued == 3


def test_a_fabric_registers_no_process(monkeypatch):
    """Links are callbacks: building a fabric creates no engine process
    and leaves nothing on the event heap."""
    engine = Engine()
    FatTree(engine, 64)
    assert engine._processes == []
    assert engine.empty()
