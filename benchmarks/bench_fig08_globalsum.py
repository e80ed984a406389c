"""Fig. 8 / Section 4.2 — butterfly global sum.

Writes the measured global-sum latencies (2/4/8/16-way single-CPU and
2x2..2x16 SMP mix-mode) and the least-squares fit of our DES points
beside the paper's line as ``repro report fig8`` builds them, and
verifies the Fig. 8 communication pattern (partial sums per round) on
the wire.
"""

import pytest

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.core.report import SECTIONS
from repro.hardware.cluster import HyadesCluster
from repro.parallel.globalsum import butterfly_global_sum

from _tables import emit, emit_bench

WAYS = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def section():
    return SECTIONS["fig8"]()


def test_bench_des_gsum_16way(section):
    assert section.values[16, "des"] == pytest.approx(section.paper[16, "des"], rel=0.10)


def test_bench_fig8_pattern():
    vals = [float(i) for i in range(8)]
    results, trace = butterfly_global_sum(vals, True)
    assert results == [sum(vals)] * 8
    # the partial sums annotated in Fig. 8
    assert trace[0][0] == vals[0] + vals[1]
    assert trace[1][0] == sum(vals[:4])


def test_bench_gsum_table(section):
    emit("fig08_globalsum", section.render())
    ours, paper = section.values, section.paper
    assert ours["fit_slope"] == pytest.approx(paper["fit_slope"], rel=0.15)
    for n in WAYS:
        assert ours[n, "des"] == pytest.approx(paper[n, "des"], rel=0.10)
    emit_bench(
        "fig08_globalsum",
        virtual_time_s=ours[16, "des"],
        model_error={
            f"gsum_{n}way_vs_paper": ours[n, "des"] / paper[n, "des"] - 1.0 for n in WAYS
        },
        data={
            **{f"gsum_{n}way_us": ours[n, "des"] * 1e6 for n in WAYS},
            "fit_slope_us": ours["fit_slope"] * 1e6,
            "fit_offset_us": ours["fit_offset"] * 1e6,
        },
        units={"virtual_time_s": "16-way gsum, DES seconds"},
    )


def test_bench_message_count():
    """N log2 N messages over log2 N rounds (Section 4.2)."""

    cluster = HyadesCluster()
    des_time_schedule(cluster, allreduce_butterfly(16, 8))
    assert sum(cluster.niu(i).packets_sent for i in range(16)) == 16 * 4
