"""Section 2.2 — Arctic Switch Fabric properties.

Regenerates the fabric's advertised characteristics on the simulator:
<0.15 us per router stage, 150 MB/s per link direction, the fat-tree
bisection bandwidth, FIFO ordering and priority behaviour.
"""

import pytest

from repro.network import FatTree
from repro.network.packet import Packet
from repro.network.router import ARCTIC_LINK_BANDWIDTH, ARCTIC_STAGE_LATENCY
from repro.sim import Engine

from _tables import emit, format_table, mbs, us


def measure_stage_latency():
    """Head latency per link for the farthest pair in a 16-way tree."""
    eng = Engine()
    ft = FatTree(eng, 16)
    got = {}
    ft.attach_endpoint(15, lambda p: got.update(t=p.recv_time))
    for ep in range(15):
        ft.attach_endpoint(ep, lambda p: None)
    ft.inject(Packet(src=0, dst=15, payload_words=[0, 0]))
    eng.run()
    return got["t"] / ft.path_links(0, 15)


def measure_link_bandwidth(n_packets: int = 200):
    """Saturate one path with max-size packets; measure delivered rate."""
    eng = Engine()
    ft = FatTree(eng, 4)
    done = {}
    count = [0]

    def sink(p):
        count[0] += 1
        if count[0] == n_packets:
            done["t"] = eng.now

    ft.attach_endpoint(1, sink)
    for ep in (0, 2, 3):
        ft.attach_endpoint(ep, lambda p: None)
    for i in range(n_packets):
        ft.inject(Packet(src=0, dst=1, payload_words=[0] * 22, tag=i % 2048))
    eng.run()
    wire = 24 * 4  # bytes per packet on the wire
    return n_packets * wire / done["t"]


def test_bench_stage_latency():
    t = measure_stage_latency()
    assert t == pytest.approx(ARCTIC_STAGE_LATENCY, rel=1e-9)
    assert t <= 0.15e-6 + 1e-12


def test_bench_link_bandwidth():
    bw = measure_link_bandwidth()
    # steady-state delivered rate approaches the 150 MB/s link rate
    assert bw == pytest.approx(ARCTIC_LINK_BANDWIDTH, rel=0.02)


def test_bench_sec22_table():
    stage = measure_stage_latency()
    bw = measure_link_bandwidth()
    eng = Engine()
    ft = FatTree(eng, 16)
    emit(
        "sec22_arctic",
        format_table(
            "Section 2.2 - Arctic Switch Fabric: measured (paper)",
            ["quantity", "measured", "paper"],
            [
                ["router stage latency (us)", us(stage, 3), "<0.15"],
                ["link bandwidth (MB/s)", mbs(bw), "150 each direction"],
                [
                    "bisection bw, struct. min-cut (MB/s)",
                    mbs(ft.topology.bisection_bandwidth()),
                    "2 x N x 150 (paper formula: "
                    + mbs(ft.topology.paper_bisection_bandwidth())
                    + ")",
                ],
                ["16-endpoint fat-tree routers", str(len(ft.routers)), "N/2 per level x log2 N levels"],
            ],
        ),
    )
