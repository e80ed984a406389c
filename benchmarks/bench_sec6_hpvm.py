"""Section 6 — comparison with an HPVM/Myrinet cluster.

Regenerates the two quantitative claims: a sixteen-way barrier takes
>50 us on HPVM (>2.5x Hyades's 18.2 us context-specific primitive), and
1-KB transfers run at ~42 MB/s (25 % below Hyades's 56.8 MB/s).
"""

import pytest

from repro.network.costmodel import arctic_cost_model
from repro.network.myrinet import myrinet_hpvm_cost_model

from _tables import emit, format_table, mbs, us


def comparison():
    arctic = arctic_cost_model()
    hpvm = myrinet_hpvm_cost_model()
    return {
        "barrier_hpvm": hpvm.barrier_time(16),
        "barrier_arctic": arctic.gsum_time(16),
        "bw1k_hpvm": hpvm.perceived_bandwidth(1024),
        "bw1k_arctic": arctic.perceived_bandwidth(1024),
    }


def test_bench_hpvm_comparison():
    c = comparison()
    emit(
        "sec6_hpvm",
        format_table(
            "Section 6 - Hyades vs HPVM/Myrinet",
            ["quantity", "HPVM/Myrinet", "Hyades/Arctic", "ratio", "paper"],
            [
                [
                    "16-way barrier (us)",
                    us(c["barrier_hpvm"]),
                    us(c["barrier_arctic"]),
                    f"{c['barrier_hpvm'] / c['barrier_arctic']:.2f}x",
                    ">50 vs 18.2 (>2.5x)",
                ],
                [
                    "1-KB transfer (MB/s)",
                    mbs(c["bw1k_hpvm"]),
                    mbs(c["bw1k_arctic"]),
                    f"{1 - c['bw1k_hpvm'] / c['bw1k_arctic']:.0%} slower",
                    "42 vs 56.8 (25% slower)",
                ],
            ],
        ),
    )
    assert c["barrier_hpvm"] / c["barrier_arctic"] > 2.5
    assert c["bw1k_hpvm"] == pytest.approx(0.75 * c["bw1k_arctic"], rel=0.05)
