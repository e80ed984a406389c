"""LogP characterization of the PIO mechanism (paper Fig. 2, ref [10]).

Os and Or follow analytically from the PCI mmap costs of Section 2.1
(the paper: "we can reliably estimate the performance of PIO-mode
communication by summing the cost of the mmap accesses ... the
experimentally determined LogP characteristics corroborate these
estimates"); the measured columns come from a ping-pong on the
discrete-event cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import FIG2_PAPER
from repro.hardware.cluster import HyadesCluster
from repro.network.router import ARCTIC_LINK_BANDWIDTH, ARCTIC_STAGE_LATENCY
from repro.niu.startx import PIO_COST_MODEL


@dataclass(frozen=True)
class LogP:
    """One row of Fig. 2 (all times in seconds)."""

    payload_bytes: int
    os_: float  # send overhead
    or_: float  # receive overhead
    half_rtt: float  # Tround-trip / 2
    latency: float  # Lnetwork = half_rtt - Os - Or


def analytic_logp(payload_bytes: int) -> LogP:
    """LogP from first principles: PCI costs + transit of the eight
    links between opposite corners of the 16-node fat tree."""
    os_ = PIO_COST_MODEL.os_time(payload_bytes)
    or_ = PIO_COST_MODEL.or_time(payload_bytes)
    wire = payload_bytes + 8  # two header words
    latency = 8 * ARCTIC_STAGE_LATENCY + wire / ARCTIC_LINK_BANDWIDTH
    return LogP(payload_bytes, os_, or_, os_ + or_ + latency, latency)


def measure_logp(payload_bytes: int) -> LogP:
    """Measure LogP on the DES cluster with a ping-pong (Fig. 2 method)
    between opposite corners of the fat tree."""
    if payload_bytes % 8 or payload_bytes < 8 or payload_bytes > 88:
        raise ValueError("payload must be 8..88 bytes in 8-byte multiples")
    src, dst, reps = 0, 15, 10
    n_words = payload_bytes // 4
    words = list(range(n_words))
    cluster = HyadesCluster()
    eng = cluster.engine
    out = {}

    def pinger():
        # warm-up round, then timed repetitions
        yield from cluster.niu(src).pio_send(dst, words)
        yield from cluster.niu(src).pio_recv()
        t0 = eng.now
        for _ in range(reps):
            yield from cluster.niu(src).pio_send(dst, words)
            yield from cluster.niu(src).pio_recv()
        out["rtt"] = (eng.now - t0) / reps

    def ponger():
        for _ in range(reps + 1):
            yield from cluster.niu(dst).pio_recv()
            yield from cluster.niu(dst).pio_send(src, words)

    eng.process(pinger())
    eng.process(ponger())
    eng.run()

    os_ = PIO_COST_MODEL.os_time(payload_bytes)
    or_ = PIO_COST_MODEL.or_time(payload_bytes)
    half = out["rtt"] / 2.0
    return LogP(payload_bytes, os_, or_, half, half - os_ - or_)


def fig2_table() -> list[dict]:
    """Fig. 2 rows (8 B and 64 B), measured on the DES cluster, with
    paper reference columns."""
    rows = []
    for size, (p_os, p_or, p_half, p_lat) in sorted(FIG2_PAPER.items()):
        lp = measure_logp(size)
        rows.append(
            {
                "payload_bytes": size,
                "os": lp.os_,
                "or": lp.or_,
                "half_rtt": lp.half_rtt,
                "latency": lp.latency,
                "paper_os": p_os,
                "paper_or": p_or,
                "paper_half_rtt": p_half,
                "paper_latency": p_lat,
            }
        )
    return rows
