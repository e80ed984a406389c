"""Differential test: the callback :class:`~repro.network.router.Link`
against the generator transmitter it replaced (``_reference_link.py``).

Each seeded mix drives the same traffic and the same fault schedule
through two fabrics that differ only in the link class, and demands
that every endpoint receives the same packets, in the same order, at
bit-identical ``recv_time``, with equal per-link ``LinkStats``, queue
depths and ``fault_counters()`` — plus packet conservation (ROADMAP 5b)
on both.

Two families: dense mixes (every link backlogged most of the time) and
sparse ones, where links fall idle between packets and the lazy paths of
``Link`` do the work — a packet put on the wire inside ``send``, a
tail-off event left out because nobody waited for it, the clock held at
quiescence.  A third, single-link family replays seeded scripts on a
power-of-two time grid, where every arrival that can tie with a tail
does.

A fourth family, under hypothesis on every registered topology, holds
the one-call packet-hop (router and link) against the call chain it
replaced (``_reference_hop.py``): there the two must agree on every
event, not only on what endpoints see.

Exact float ties are the norm here, not a corner: on a cut-through
pipeline the next packet's head arrives the very instant the previous
tail leaves.  The generator picked its next packet two relay events
after the serialization timeout, i.e. after the arrivals of that
instant; the callback link gets the same arbitration by ending its
serialization late in its instant (``Engine.late_ticket``, reserved
when the packet goes on the wire).  What is *not* compared is the
interleaving of different endpoints' callbacks inside one instant
(1 mix in 1200 swaps two such deliveries).
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.fabrics as fabrics_mod
from repro.network.fabrics import Fabric, FabricParams, HubFabric
from repro.network import FatTree, FatTreeParams
from repro.network.packet import Packet, Priority
from repro.network.router import FAULT_CORRUPT, FAULT_DROP, ArcticRouter, Link
from repro.network.topology import make_topology, topology_names
from repro.obs import trace as obs_trace
from repro.sim import Engine

from _reference_hop import ReferenceHopLink, ReferenceRouter
from _reference_link import ReferenceLink


def queued(link) -> int:
    """Packets parked on a link: ``Link``'s ``_waiting`` heap, the
    reference's priority store."""
    return link.queued if isinstance(link, ReferenceLink) else len(link._waiting)


N = 16
SEEDS = range(28)
#: injection instants come from a coarse grid so that packets from
#: different sources really do reach a shared link at the same float
GRID_S = 0.25e-6


def make_fabric(kind, engine, seed):
    if kind == "fattree":
        return FatTree(engine, N, FatTreeParams(seed=seed))
    if kind == "torus":
        return Fabric(engine, make_topology("torus2d", N), FabricParams(seed=seed))
    return HubFabric(engine, make_topology("ethernet", N), FabricParams(seed=seed))


def fault_hook(rng, p_drop, p_corrupt):
    def hook(_pkt):
        u = rng.random()
        if u < p_drop:
            return FAULT_DROP
        if u < p_drop + p_corrupt:
            return FAULT_CORRUPT
        return None

    return hook


def build(kind, seed, link_cls, monkeypatch):
    """A fabric built from ``link_cls`` with a recording inbox on every
    endpoint."""
    monkeypatch.setattr(fabrics_mod, "Link", link_cls)
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
    return engine, fabric, links, inbox


def observe(engine, fabric, links, inbox, injected, label):
    """Everything an observer could tell the two link classes apart by."""
    counters = fabric.fault_counters()
    held = sum(map(queued, links))
    delivered = sum(len(box) for box in inbox.values())
    # ROADMAP 5b: nothing is created, nothing vanishes unaccounted
    assert injected == (
        delivered + counters["link_drops"] + counters["router_crc_drops"]
        + counters["blackholed"] + counters["source_drops"] + held
    ), (label, counters, held)
    return {
        "inbox": inbox,
        "stats": {link.name: link.stats for link in links},
        "queued": {link.name: queued(link) for link in links},
        "counters": counters,
        "now": engine.now,
        "injected": injected,
    }


def assert_same(new, ref):
    assert new["injected"] == ref["injected"]
    # every endpoint sees the same packets in the same order; tuple
    # equality on floats is bit equality (no nan in a recv_time)
    assert new["inbox"] == ref["inbox"]
    assert new["stats"] == ref["stats"]
    assert new["queued"] == ref["queued"]
    assert new["counters"] == ref["counters"]
    assert new["now"] == ref["now"]


def run_mix(kind, seed, link_cls, monkeypatch):
    """One seeded dense traffic mix on one fabric built from ``link_cls``."""
    engine, fabric, links, inbox = build(kind, seed, link_cls, monkeypatch)
    rng = random.Random(f"{kind}:{seed}")

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
    return observe(engine, fabric, links, inbox, injected, (kind, seed, link_cls.__name__))


@pytest.mark.parametrize("kind", ["fattree", "torus", "hub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_same_packets_same_order_same_times(kind, seed, monkeypatch):
    assert_same(
        run_mix(kind, seed, Link, monkeypatch),
        run_mix(kind, seed, ReferenceLink, monkeypatch),
    )


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


# -- the sparse family: links idle between packets ---------------------------

#: injection instants spread over 150 us; a full packet serializes in 0.64 us
SPARSE_SPAN = 600
FULL_WORDS = 22
FULL_SER = (2 + FULL_WORDS) * 4 / 150e6


def run_sparse(kind, seed, link_cls, monkeypatch):
    """A few isolated bursts with gaps of many serialization times, link
    conditions that land on wires long fallen idle, and two more bursts
    handed over outside the run: at the quiescent clock, then at the
    ``until`` a bounded run stopped on."""
    engine, fabric, links, inbox = build(kind, seed, link_cls, monkeypatch)
    rng = random.Random(f"sparse:{kind}:{seed}")

    def instant():
        return rng.randrange(1, SPARSE_SPAN) * GRID_S

    # conditions are scheduled before the traffic: where one shares an
    # instant with a send it comes first, as FaultInjector's do
    for link in rng.sample(links, k=max(1, len(links) // 8)):
        link.fault_hook = fault_hook(
            random.Random(rng.random()), rng.choice((0.1, 0.3)), rng.choice((0.0, 0.1))
        )
    for _ in range(rng.randrange(2, 7)):
        engine.schedule_at(
            instant(), rng.choice(links).stall, rng.choice((0.2e-6, 1.0e-6, 3.3e-6))
        )
    for _ in range(rng.randrange(1, 4)):
        engine.schedule_at(
            instant(), setattr, rng.choice(links), "rate_factor", rng.choice((0.25, 0.5, 0.9))
        )
    if seed % 3 == 0:
        engine.schedule_at(instant(), rng.choice(links).stall, float("inf"))
    if seed % 4 == 1:
        engine.schedule_at(instant(), fabric.kill_endpoint, rng.randrange(N))

    injected = 0

    def packet(src, dst, priority, words=FULL_WORDS):
        nonlocal injected
        injected += 1
        return Packet(
            src=src, dst=dst, payload_words=[injected % 7] * words,
            priority=priority, random_uproute=rng.random() < 0.3, data=injected,
        )

    for _ in range(rng.randrange(6, 14)):
        when, src, dst = instant(), rng.randrange(N), rng.randrange(N)
        engine.schedule_at(when, fabric.inject, packet(src, dst, Priority.LOW))
        if rng.random() < 0.5:
            # a second LOW parks behind the first, and a HIGH arrives the
            # very instant the first tail leaves an undegraded wire
            engine.schedule_at(when, fabric.inject, packet(src, dst, Priority.LOW))
            engine.schedule_at(
                when + FULL_SER, fabric.inject, packet(src, dst, Priority.HIGH, 2)
            )
    clocks = [engine.run()]
    for until in (engine.now + rng.choice((0.0, 0.3e-6, 2.0e-6)), None):
        for src in rng.sample(range(N), 3):
            for priority in (Priority.LOW, Priority.HIGH, Priority.LOW):
                fabric.inject(packet(src, rng.randrange(N), priority))
        clocks.append(engine.run(until=until))
    out = observe(engine, fabric, links, inbox, injected, (kind, seed, link_cls.__name__))
    out["clocks"] = clocks
    return out


@pytest.mark.parametrize("kind", ["fattree", "torus", "hub"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_same_packets_same_order_same_times(kind, seed, monkeypatch):
    new = run_sparse(kind, seed, Link, monkeypatch)
    ref = run_sparse(kind, seed, ReferenceLink, monkeypatch)
    assert_same(new, ref)
    assert new["clocks"] == ref["clocks"]


def test_the_sparse_family_exercises_the_lazy_paths(monkeypatch):
    """Counted on the engine's side: a ticket per transmission, most of
    them never redeemed (the tail-off is left out), some redeemed by an
    arrival that ties with the tail — and drops, dead links and
    blackholes still occur."""
    seen = {"tickets": 0, "tie": 0, "parked_early": 0}
    late_ticket, schedule_at = Engine.late_ticket, Engine.schedule_at

    def counting_ticket(self, when):
        seen["tickets"] += 1
        return late_ticket(self, when)

    def counting_schedule_at(self, when, fn, *args, ticket=None):
        if ticket is not None:
            seen["tie" if when == self.now else "parked_early"] += 1
        schedule_at(self, when, fn, *args, ticket=ticket)

    monkeypatch.setattr(Engine, "late_ticket", counting_ticket)
    monkeypatch.setattr(Engine, "schedule_at", counting_schedule_at)
    total = {"link_drops": 0, "router_crc_drops": 0, "blackholed": 0, "queued": 0}
    for kind in ("fattree", "torus", "hub"):
        for seed in SEEDS:
            out = run_sparse(kind, seed, Link, monkeypatch)
            for key in ("link_drops", "router_crc_drops", "blackholed"):
                total[key] += out["counters"][key]
            total["queued"] += sum(out["queued"].values())
    assert all(v > 0 for v in {**seen, **total}.values()), (seen, total)
    assert seen["tie"] > 100, seen
    assert seen["tie"] + seen["parked_early"] < 0.5 * seen["tickets"], seen


# -- the single-link family: every tie that can happen, does ------------------

#: 16 bytes per 2**-20 s and a stage of one tick: every serialization,
#: stall and injection instant is a whole number of ticks, exactly
TICK = 2.0 ** -22
TICK_BANDWIDTH = 2.0 ** 24
SCRIPT_SPAN = 160


def run_script(seed, link_cls):
    """One link driven by a seeded script: conditions, in-run sends, and
    run segments (to quiescence or to an ``until``) with sends handed
    over outside the run in between.

    Left out on purpose, because the callback link never promised them:
    a condition that changes in the same instant *after* a send reached
    the idle wire, and in-run sends at t = 0 competing with the batch
    handed over before the run."""
    rng = random.Random(f"script:{seed}")
    engine = Engine()
    got = []
    link = link_cls(
        engine,
        lambda p: got.append((p.data, int(p.priority), p.corrupt, engine.now)),
        bandwidth=TICK_BANDWIDTH, stage_latency=TICK,
    )
    if rng.random() < 0.4:
        link.fault_hook = fault_hook(random.Random(rng.random()), rng.choice((0.1, 0.3)), 0.1)
    made = 0

    def packet():
        nonlocal made
        made += 1
        return Packet(
            src=0, dst=1, payload_words=[0] * rng.choice((2, 2, 6, 14, 22)),
            priority=rng.choice((Priority.LOW, Priority.LOW, Priority.HIGH)), data=made,
        )

    def instant(first=0):
        return rng.randrange(first, SCRIPT_SPAN) * TICK

    for _ in range(rng.randrange(0, 6)):
        engine.schedule_at(instant(), link.stall, rng.choice((1, 4, 9)) * TICK)
    for _ in range(rng.randrange(0, 3)):
        engine.schedule_at(instant(), setattr, link, "rate_factor", rng.choice((0.25, 0.5, 1.0)))
    for _ in range(rng.randrange(0, 2)):
        engine.schedule_at(instant(), setattr, link, "latency_extra", rng.choice((0.0, TICK, 3 * TICK)))
    if rng.random() < 0.1:
        engine.schedule_at(instant(), link.stall, float("inf"))
    for _ in range(rng.randrange(0, 14)):
        when = instant(first=1)
        for _ in range(rng.choice((1, 1, 2, 3))):
            engine.schedule_at(when, link.send, packet())
    clocks = []
    for segment in range(rng.randrange(1, 5)):
        if rng.random() < 0.15:
            link.stall(rng.choice((2, 5)) * TICK)
        for _ in range(rng.choice((0, 1, 3)) or segment == 0):
            link.send(packet())
        until = None if rng.random() < 0.5 else engine.now + rng.randrange(0, 60) * TICK
        clocks.append(engine.run(until=until))
    clocks.append(engine.run())
    return got, link.stats, queued(link), clocks, made


def test_single_link_scripts_match_the_reference():
    for seed in range(400):
        assert run_script(seed, Link) == run_script(seed, ReferenceLink), seed


@pytest.mark.parametrize("link_cls", [Link, ReferenceLink])
def test_high_arriving_as_the_tail_leaves(link_cls):
    """Inside a run a HIGH packet that arrives exactly at the tail-off
    instant is arbitrated with what is parked (it overtakes the LOW);
    between runs that instant is over, and the first packet handed to
    the idle link owns the wire."""
    def order(outside_run):
        engine = Engine()
        got = []
        link = link_cls(engine, lambda p: got.append(p.data), bandwidth=TICK_BANDWIDTH, stage_latency=TICK)
        engine.schedule_at(TICK, link.send, Packet(src=0, dst=1, data="first"))
        tail = TICK + 16 / TICK_BANDWIDTH
        low = Packet(src=0, dst=1, data="low")
        high = Packet(src=0, dst=1, data="high", priority=Priority.HIGH)
        if outside_run:
            assert engine.run() == tail
            link.send(low)
            link.send(high)
        else:
            engine.schedule_at(TICK, link.send, low)
            engine.schedule_at(tail, link.send, high)
        engine.run()
        return got

    assert order(outside_run=False) == ["first", "high", "low"]
    assert order(outside_run=True) == ["first", "low", "high"]


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
    assert queued(link) == 3  # the first LOW already owns the wire
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
    assert link.stats.dropped == 1 and queued(link) == 3


def test_a_fabric_registers_no_process(monkeypatch):
    """Links are callbacks: building a fabric creates no engine process
    and leaves nothing on the event heap."""
    engine = Engine()
    FatTree(engine, 64)
    assert engine._processes == []
    assert engine.empty()


# -- the hop oracle: one call per packet-hop against the old call chain ------

#: what a scenario may switch on; hypothesis draws any subset
HOP_CONDITIONS = (
    "faults", "stalls", "dead_link", "rate", "latency", "jitter", "flips", "crash",
)


def run_hops(name, seed, conditions, traced, link_cls, router_cls):
    """One seeded scenario on topology ``name`` with the given link and
    router classes; returns everything either hop path could differ in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fabrics_mod, "Link", link_cls)
        mp.setattr(fabrics_mod, "ArcticRouter", router_cls)
        engine = Engine()
        fabric = make_topology(name, N).build_fabric(engine, seed=seed % 65536)
    links = list(fabric.iter_links())
    assert all(type(lk) is link_cls for lk in links)
    assert all(type(r) is router_cls for r in fabric.routers)
    rng = random.Random(f"hop:{name}:{seed}")
    order = []
    for ep in range(N):
        fabric.attach_endpoint(
            ep,
            lambda p, ep=ep: order.append(
                (ep, p.data, p.src, int(p.priority), p.hops, p.corrupt,
                 p.send_time, p.recv_time)
            ),
        )

    def instant():
        return rng.randrange(0, 48) * GRID_S

    if "faults" in conditions:
        for link in rng.sample(links, k=max(1, len(links) // 5)):
            link.fault_hook = fault_hook(
                random.Random(rng.random()), rng.choice((0.0, 0.1, 0.3)), rng.choice((0.05, 0.2))
            )
    if "rate" in conditions:
        for link in rng.sample(links, k=max(1, len(links) // 6)):
            link.rate_factor = rng.choice((0.25, 0.5, 0.9))
        # 0.0 is clamped to 1e-9: that wire all but stops
        engine.schedule_at(instant(), setattr, rng.choice(links), "rate_factor", rng.choice((0.0, 0.5)))
    if "latency" in conditions:
        for link in rng.sample(links, k=max(1, len(links) // 6)):
            link.latency_extra = rng.choice((0.1e-6, 0.37e-6))
    if "jitter" in conditions:
        for link in rng.sample(links, k=max(1, len(links) // 6)):
            jitter = random.Random(rng.random())
            link.delay_hook = lambda _p, j=jitter: j.uniform(-0.05e-6, 0.3e-6)
    if "stalls" in conditions:
        for _ in range(rng.randrange(1, 5)):
            engine.schedule_at(
                instant(), rng.choice(links).stall, rng.choice((0.2e-6, 1.0e-6, 3.3e-6))
            )
    if "dead_link" in conditions:
        engine.schedule_at(instant(), rng.choice(links).stall, float("inf"))
    if "crash" in conditions:
        engine.schedule_at(instant(), fabric.kill_endpoint, rng.randrange(N))

    packets = []

    def packet(src, dst, priority):
        pkt = Packet(
            src=src, dst=dst,
            payload_words=[len(packets)] + [rng.randrange(1 << 32)] * rng.randrange(1, 22),
            tag=len(packets) % 2048, priority=priority,
            random_uproute=rng.random() < 0.3, data=len(packets),
        )
        packets.append(pkt)
        return pkt

    def priority():
        return rng.choice((Priority.LOW, Priority.LOW, Priority.HIGH))

    # a batch handed over before the run, then bursts and back-to-back
    # streams in it: k packets of one flow in one instant, and a packet
    # of that flow arriving the very instant the first tail leaves
    for _ in range(rng.randrange(0, 6)):
        fabric.inject(packet(rng.randrange(N), rng.randrange(N), priority()))
    for _ in range(rng.randrange(8, 24)):
        when, src, dst = instant(), rng.randrange(N), rng.randrange(N)
        for _ in range(rng.randrange(1, 5)):
            engine.schedule_at(when, fabric.inject, packet(src, dst, priority()))
        if rng.random() < 0.4:
            engine.schedule_at(when + FULL_SER, fabric.inject, packet(src, dst, Priority.HIGH))
    if "flips" in conditions:
        def flip(k, word, bit):
            packets[k].payload_words[word] ^= 1 << bit

        for _ in range(rng.randrange(1, 8)):
            k = rng.randrange(len(packets))
            engine.schedule_at(
                instant() + rng.choice((0.0, 0.15e-6, 0.3e-6)), flip,
                k, rng.randrange(len(packets[k].payload_words)), rng.randrange(32),
            )

    with obs_trace.tracing() if traced else contextlib.nullcontext() as tracer:
        clocks = [engine.run()]
        for src in rng.sample(range(N), 2):  # handed over at the quiescent clock
            fabric.inject(packet(src, rng.randrange(N), priority()))
        clocks.append(engine.run())
    return {
        "order": order,
        "clocks": clocks,
        "events": engine.events_executed,
        "stats": [(link.name, link.stats, queued(link)) for link in links],
        "routers": [
            (r.name, r.crc_errors, r.packets_forwarded, [p.data for p in r.dropped])
            for r in fabric.routers
        ],
        "counters": fabric.fault_counters(),
        "trace": None if tracer is None else tracer.events,
    }


@pytest.mark.parametrize("name", topology_names())
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    conditions=st.sets(st.sampled_from(HOP_CONDITIONS)),
    traced=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_one_call_hop_matches_the_call_chain(name, seed, conditions, traced):
    """Same deliveries in the same order at bit-identical times, same
    link, router and fault counters, same event count and the same
    trace events — on every topology, under any mix of conditions."""
    new = run_hops(name, seed, conditions, traced, Link, ArcticRouter)
    ref = run_hops(name, seed, conditions, traced, ReferenceHopLink, ReferenceRouter)
    assert new == ref


def test_the_hop_scenarios_exercise_every_path():
    """The oracle above is only worth something if its scenarios reach
    CRC drops from in-flight flips, link drops and corruptions, dead
    links, blackholes, both priorities and backlog — checked once on a
    fixed set of seeds with every condition on."""
    total = {"link_drops": 0, "link_corruptions": 0, "router_crc_drops": 0,
             "blackholed": 0, "high": 0, "two_event_hops": 0}
    for name in topology_names():
        for seed in range(6):
            out = run_hops(name, seed, HOP_CONDITIONS, seed % 2 == 0, Link, ArcticRouter)
            for key in ("link_drops", "link_corruptions", "router_crc_drops", "blackholed"):
                total[key] += out["counters"][key]
            total["high"] += sum(s.high_priority_packets for _, s, _ in out["stats"])
            hops = sum(s.packets for _, s, _ in out["stats"])
            total["two_event_hops"] += out["events"] > hops
    assert all(v > 0 for v in total.values()), total
