"""Fig. 7 — VI-mode transfer bandwidth as a function of block size.

Regenerates the full curve (4 B to 128 KB) by running one VI transfer
per block size on the simulated hardware, alongside the analytic model
``bw(s) = s / (8.6 us + s / 110 MB/s)`` that the paper quotes via its
56.8 MB/s @ 1 KB and 90 %-of-peak @ 9 KB data points, and fits the same
two constants to the DES points.
"""

import pytest

from repro.core.fits import fit_bandwidth_model
from repro.network.costmodel import arctic_cost_model
from repro.parallel.des_collectives import des_transfer_bandwidth

from _tables import emit, format_table, mbs

#: The x-axis of Fig. 7 (bytes).
BLOCK_SIZES = [2 ** k for k in range(2, 18)]


def sweep(sizes=None):
    model = arctic_cost_model()
    rows = []
    for s in sizes or BLOCK_SIZES:
        measured = des_transfer_bandwidth(max(s, 4)) if s >= 64 else None
        rows.append((s, measured, model.perceived_bandwidth(s)))
    return rows


def test_bench_single_transfer_64k():
    bw = des_transfer_bandwidth(65536)
    assert bw == pytest.approx(arctic_cost_model().perceived_bandwidth(65536), rel=0.05)


def test_bench_fig7_curve():
    rows = sweep([256, 1024, 4096, 9216, 32768, 131072])
    full = sweep()
    model = arctic_cost_model()
    overhead, bandwidth = fit_bandwidth_model({s: s / m for s, m, _ in full if m})
    table = [
        [s, mbs(m) if m else "-", mbs(a)]
        for s, m, a in full
    ]
    emit(
        "fig07_bandwidth",
        format_table(
            "Fig. 7 - exchange transfer bandwidth vs block size",
            ["block (B)", "DES measured (MB/s)", "analytic model (MB/s)"],
            table,
        )
        + f"least-squares fit of the DES points: bw(s) = s / ({overhead * 1e6:.2f} us"
        f" + s / {mbs(bandwidth)} MB/s); the paper's curve: 8.6 us, 110 MB/s\n",
    )
    assert overhead == pytest.approx(model.transfer_overhead, rel=0.05)
    assert bandwidth == pytest.approx(model.bandwidth, rel=0.02)
    # paper's quoted points
    assert model.perceived_bandwidth(1024) == pytest.approx(56.8e6, rel=0.02)
    assert model.perceived_bandwidth(9 * 1024) >= 0.9 * 110e6
    # DES tracks the model across the sweep
    for s, measured, analytic in rows:
        assert measured == pytest.approx(analytic, rel=0.10)
    # curve is monotone and saturates near 110 MB/s
    analytic_curve = [a for _, _, a in full]
    assert analytic_curve == sorted(analytic_curve)
    assert analytic_curve[-1] > 0.95 * 110e6
