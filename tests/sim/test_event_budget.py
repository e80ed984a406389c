"""Exact event-count budgets for the DES per-hop path.

Counts are noise-free where timings are not: a relay, a store round trip
or a per-link process re-introduced on the per-hop path moves these
numbers on every host, every run.  ``scripts/ci.sh`` runs this file as
its own named stage.  A change that *lowers* a count updates the pin; a
change that raises one has to say why.
"""

from repro.collectives import build, des_time_schedule
from repro.hardware import HyadesCluster, HyadesConfig
from repro.network.fattree import FatTree
from repro.network.packet import Packet
from repro.sim import Engine

#: start of serialization, head reaches the far side, tail leaves.
MAX_EVENTS_PER_PACKET_HOP = 3


def test_n16_butterfly_allreduce_event_count_and_time():
    cluster = HyadesCluster(HyadesConfig(n_nodes=16))
    seconds = des_time_schedule(cluster, build("allreduce", "butterfly", 16, 8))
    assert seconds == 1.688e-05  # 4 rounds x 4.22 us, as the generator links gave
    assert cluster.engine.events_executed == 1488  # 1936 with generator links


def test_eight_packet_stream_over_a_four_link_path():
    engine = Engine()
    fabric = FatTree(engine, 16)
    assert engine.empty()  # building the fabric schedules nothing
    got = []
    for ep in range(16):
        fabric.attach_endpoint(ep, got.append)
    assert fabric.path_links(0, 3) == 4
    for k in range(8):
        fabric.inject(Packet(src=0, dst=3, payload_words=[k, 0]))
    engine.run()
    assert [p.payload_words[0] for p in got] == list(range(8))
    # head latency 4 x 0.15 us + 7 earlier packets x 16 B / 150 MB/s
    assert got[-1].recv_time == 1.346666666666667e-06
    packet_hops = 8 * 4
    assert engine.events_executed == 70  # 256 with generator links
    assert engine.events_executed <= MAX_EVENTS_PER_PACKET_HOP * packet_hops
