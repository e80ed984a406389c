"""Exact event-count budgets for the DES per-hop path, and the engine
invariants the lazy links lean on.

Counts are noise-free where timings are not: a relay, a store round trip,
a per-link process or an unconditional tail-off event re-introduced on
the per-hop path moves these numbers on every host, every run.  So does
a Python call put back into a hop (a property, a closure, a helper): the
per-hop, per-wait and per-message call budgets count frames with
``sys.setprofile``.
``scripts/ci.sh`` runs this file as its own named stage.  A change that
*lowers* a count updates the pin; a change that raises one has to say
why.

A link that leaves out the tail-off events nobody waits for must not be
observable through the clock: virtual time still never decreases, a run
that drains the heap still ends at the last tail-off (ROADMAP item 4's
engine-side invariants live here, not in a stage of their own).
"""

import gc
import random
import sys

import pytest

from repro.collectives import Schedule, Send, build, des_time_schedule
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


def frames_entered(fn):
    """Python frames entered while ``fn()`` runs, ``fn``'s own included.
    The cyclic collector is held off: collecting what earlier code left
    (a suspended generator closes in a frame of its own) is not ``fn``'s."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return count


def stream_frames(dst):
    """(frames to inject, frames to run) the 8-packet stream 0 -> ``dst``."""
    got = []
    engine, fabric = fat_tree_16(got.append)
    packets = [Packet(src=0, dst=dst, payload_words=[k, 0]) for k in range(8)]

    def inject_all():
        for pkt in packets:
            fabric.inject(pkt)

    frames = frames_entered(inject_all), frames_entered(engine.run)
    assert len(got) == 8
    return frames


def test_per_hop_call_budget():
    """A hop is one call of the router (CRC, route lookup, hand-over) and
    one of the link (arbitrate, transmit), plus ``compute_crc`` and the
    engine's ``schedule`` / ``late_ticket``, and ``schedule_at`` where the
    packet parks behind a tail: on this stream 3 hops in 4, so 6.75
    frames per packet-hop (12.75 with the ``route_fn`` closure,
    ``check_crc``, the ``now`` / ``events_executed`` / ``wire_bytes``
    properties and ``_tx_done``)."""
    inject4, run4 = stream_frames(3)
    inject2, run2 = stream_frames(1)
    # injection is path-independent: inject, packet_route, the up/down
    # route and the first link's send per packet, one start event in all
    assert inject4 == inject2 == 1 + 8 * 4 + 1  # 51 with the properties
    packet_hops = 8 * (4 - 2)
    assert (run4, run2) == (203, 95)  # (379, 175) before
    assert (run4 - run2) / packet_hops == 6.75


def wake_frames(wakes):
    """Frames to run a started process through ``wakes`` timeouts."""
    engine = Engine()

    def sleeper():
        for _ in range(wakes):
            yield engine.timeout(1e-6)

    engine.process(sleeper())
    engine.run(max_events=1)  # started: waiting on its first timeout
    frames = frames_entered(engine.run)
    assert engine.events_executed == 1 + 2 * wakes
    return frames


def test_per_wait_call_budget():
    """A timeout wake is one call chain: the generator, ``Engine.timeout``,
    ``Timeout``, ``schedule``, then ``succeed``, ``schedule`` and the
    process's wake (17 frames through ``subscribe``, the ``triggered``
    property, ``_notify``, ``_on_wait_done`` -> ``_trace_unblock`` ->
    ``_resume`` and the ``ok`` / ``value`` properties)."""
    assert (wake_frames(200) - wake_frames(100)) / 100 == 7


def message_frames(nbytes):
    """(frames, events) of one ``nbytes`` send 0 -> 1 timed on 2 nodes
    (the frames include the lambda that makes the call)."""
    cluster = HyadesCluster(HyadesConfig(n_nodes=2))
    schedule = Schedule("p2p", "send", 2, nbytes, 1, ((Send(0, 1, nbytes),),))
    frames = frames_entered(lambda: des_time_schedule(cluster, schedule))
    return frames, cluster.engine.events_executed


def test_per_message_call_budget():
    """One 8 B PIO message and one 640 B VI transfer (negotiation plus 8
    fragments), from building the schedule's columns to the last event:
    no ``Signal`` built unless missing, no wait description formatted,
    PIO accesses counted once, no ``wire_bytes`` / ``check_crc`` /
    ``payload_bytes`` call on the NIU path (231 and 800 frames before;
    the events, 12 and 72, do not move)."""
    assert message_frames(8) == (178, 12)
    assert message_frames(640) == (555, 72)


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
