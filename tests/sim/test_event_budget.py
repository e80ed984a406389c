"""Exact event-count budgets for the DES per-hop path, and the engine
invariants the lazy links lean on.

Counts are noise-free where timings are not: a relay, a store round trip,
a per-link process or an unconditional tail-off event re-introduced on
the per-hop path moves these numbers on every host, every run.
``scripts/ci.sh`` runs this file as its own named stage.  A change that
*lowers* a count updates the pin; a change that raises one has to say
why.

A link that leaves out the tail-off events nobody waits for must not be
observable through the clock: virtual time still never decreases, a run
that drains the heap still ends at the last tail-off (ROADMAP item 4's
engine-side invariants live here, not in a stage of their own).
"""

import random

import pytest

from repro.collectives import build, des_time_schedule
from repro.hardware import HyadesCluster, HyadesConfig
from repro.network import FatTree
from repro.network.packet import Packet, Priority
from repro.network.router import Link
from repro.sim import DeadlockError, Engine, Store

#: head reaches the far side; tail leaves, when a packet waits behind it.
MAX_EVENTS_PER_PACKET_HOP = 2


def fat_tree_16(sink):
    engine = Engine()
    fabric = FatTree(engine, 16)
    assert engine.empty()  # building the fabric schedules nothing
    for ep in range(16):
        fabric.attach_endpoint(ep, sink)
    return engine, fabric


def test_n16_butterfly_allreduce_event_count_and_time():
    cluster = HyadesCluster(HyadesConfig(n_nodes=16))
    seconds = des_time_schedule(cluster, build("allreduce", "butterfly", 16, 8))
    assert seconds == 1.688e-05  # 4 rounds x 4.22 us, as the generator links gave
    # 1488 with a start and a tail-off event per hop, 1936 with generator links
    assert cluster.engine.events_executed == 848


def test_eight_packet_stream_over_a_four_link_path():
    got = []
    engine, fabric = fat_tree_16(got.append)
    assert fabric.path_links(0, 3) == 4
    for k in range(8):
        fabric.inject(Packet(src=0, dst=3, payload_words=[k, 0]))
    engine.run()
    assert [p.payload_words[0] for p in got] == list(range(8))
    # head latency 4 x 0.15 us + 7 earlier packets x 16 B / 150 MB/s
    assert got[-1].recv_time == 1.346666666666667e-06
    packet_hops = 8 * 4
    assert engine.events_executed == 59  # 70 with eager links, 256 with generator links
    assert engine.events_executed <= MAX_EVENTS_PER_PACKET_HOP * packet_hops


def test_one_isolated_packet_costs_one_event_per_hop():
    got = []
    engine, fabric = fat_tree_16(got.append)
    hops = fabric.path_links(0, 3)
    engine.schedule(1e-6, fabric.inject, Packet(src=0, dst=3, payload_words=[0] * 22))
    engine.run()
    assert len(got) == 1
    assert engine.events_executed == hops + 1  # the injection itself
    last_hop = 1e-6
    for _ in range(hops - 1):
        last_hop += 0.15e-6
    assert got[0].recv_time == last_hop + 0.15e-6
    # the last tail leaves after the head has landed: the clock waits for it
    assert engine.now == last_hop + 96 / 150e6


# -- engine invariants --------------------------------------------------------


def test_virtual_time_never_decreases_across_a_seeded_mix():
    """Observed at every transmission (a delay hook on every link) and
    every delivery of a mix with idle gaps, backlog, stalls and both
    priorities."""
    rng = random.Random(20)
    seen = []

    def stamp(_pkt):
        seen.append(engine.now)
        return 0.0

    engine, fabric = fat_tree_16(stamp)
    links = list(fabric.iter_links())
    for link in links:
        link.delay_hook = stamp
    for _ in range(6):
        engine.schedule_at(rng.randrange(200) * 0.25e-6, rng.choice(links).stall, 1.0e-6)
    for _ in range(60):
        when = rng.randrange(200) * 0.25e-6
        for _ in range(rng.randrange(1, 4)):
            engine.schedule_at(
                when, fabric.inject,
                Packet(src=rng.randrange(16), dst=rng.randrange(16),
                       payload_words=[0] * rng.randrange(2, 23),
                       priority=rng.choice((Priority.LOW, Priority.HIGH))),
            )
    end = engine.run()
    assert len(seen) > 400
    assert seen == sorted(seen)
    assert end >= seen[-1]


def quiescent_link():
    engine = Engine()
    heads = []
    link = Link(engine, lambda p: heads.append(engine.now))
    link.send(Packet(src=0, dst=1, payload_words=[0] * 22))
    return engine, heads, 96 / 150e6  # the tail leaves long after the head lands


def test_the_clock_at_quiescence_is_the_last_tail_off():
    engine, heads, tail = quiescent_link()
    assert engine.run() == tail
    assert heads == [0.15e-6]
    assert engine.run() == tail  # and stays there


def test_the_clock_under_until_shorter_and_longer_than_the_last_tail_off():
    engine, heads, tail = quiescent_link()
    assert engine.run(until=0.3e-6) == 0.3e-6  # head landed, tail still on the wire
    assert heads == [0.15e-6]
    assert engine.run() == tail
    engine, _heads, tail = quiescent_link()
    assert engine.run(until=1.0e-6) == 1.0e-6
    assert engine.run() == 1.0e-6


def test_no_event_is_dispatched_after_deadlock_error():
    engine, _heads, tail = quiescent_link()

    def stuck():
        yield Store(engine, name="never").get()

    engine.process(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        engine.run(watchdog=True)
    # raised at quiescence proper: the clock is already at the tail-off
    assert engine.now == tail and engine.empty()
    executed = engine.events_executed
    with pytest.raises(DeadlockError):
        engine.run(watchdog=True)
    assert engine.events_executed == executed and engine.now == tail
