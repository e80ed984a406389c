"""Ablation — cut-through vs store-and-forward routing (Section 2.2).

Arctic forwards a packet's head before its tail arrives (cut-through),
so multi-hop latency is ``hops x 0.15 us + one serialization``; a
store-and-forward design pays the serialization at *every* stage.  For
StarT-X's small packets the difference compounds over the fat tree's up
to eight link stages — part of how the fabric keeps the 8-byte
round-trip at 3.7 us and the butterfly global sum viable.
"""

import pytest

from repro.hardware.cluster import HyadesCluster
from repro.network.router import ARCTIC_LINK_BANDWIDTH, ARCTIC_STAGE_LATENCY

from _tables import emit, format_table, us


def cut_through_latency(hops: int, wire_bytes: int) -> float:
    """Head pipelines: serialization paid once."""
    return hops * ARCTIC_STAGE_LATENCY + wire_bytes / ARCTIC_LINK_BANDWIDTH


def store_forward_latency(hops: int, wire_bytes: int) -> float:
    """Whole packet buffered at each stage."""
    return hops * (ARCTIC_STAGE_LATENCY + wire_bytes / ARCTIC_LINK_BANDWIDTH)


def measured_des_latency(src=0, dst=15, payload_words=2):
    """Full-packet arrival time on the DES (cut-through by construction)."""
    cluster = HyadesCluster()
    eng = cluster.engine
    out = {}

    def sender():
        yield from cluster.niu(src).pio_send(dst, [0] * payload_words)

    def receiver():
        pkt = yield from cluster.niu(dst).pio_recv()
        out["t"] = pkt.recv_time + pkt.wire_bytes / ARCTIC_LINK_BANDWIDTH

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    # subtract the sender's CPU time (2 writes) to isolate the fabric
    return out["t"] - 0.36e-6


def test_bench_cutthrough_table():
    rows = []
    for name, wire in (("8 B payload (16 B wire)", 16), ("88 B payload (96 B wire)", 96)):
        ct = cut_through_latency(8, wire)
        sf = store_forward_latency(8, wire)
        rows.append([name, us(ct, 2), us(sf, 2), f"{sf / ct:.2f}x"])
    measured = measured_des_latency()
    rows.append(["DES-measured (16 B wire, 8 links)", us(measured, 2), "-", "-"])
    emit(
        "ablation_cutthrough",
        format_table(
            "Ablation - cut-through vs store-and-forward, max-distance pair",
            ["packet", "cut-through", "store-and-forward", "penalty"],
            rows,
        ),
    )
    # the DES is cut-through: measured full-packet latency matches the
    # analytic cut-through figure
    assert measured == pytest.approx(cut_through_latency(8, 16), rel=0.02)
    # store-and-forward would more than triple max-size packet latency
    assert store_forward_latency(8, 96) > 3 * cut_through_latency(8, 96)


def test_bench_gsum_under_store_forward():
    """What the 16-way global sum would cost without cut-through: the
    per-round wire latency grows by (hops-1) serializations."""

    ct = sf = 0.0
    for i in range(4):  # rounds with growing partner distance
        hops = 2 * (i + 1)
        ct += cut_through_latency(hops, 16) + 2.22e-6 + 2.0e-6  # + Os+Or + sw
        sf += store_forward_latency(hops, 16) + 2.22e-6 + 2.0e-6
    assert sf > ct
    # the penalty is real but modest for 16-byte packets (~0.1 us/hop);
    # for max-size packets it would dominate the round budget
    assert (sf - ct) / ct < 0.25
