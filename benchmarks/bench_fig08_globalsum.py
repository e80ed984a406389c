"""Fig. 8 / Section 4.2 — butterfly global sum.

Regenerates the measured global-sum latencies (2/4/8/16-way single-CPU
and 2x2..2x16 SMP mix-mode), the least-squares fit of our DES points
beside the paper's ``tgsum = 4.67 log2 N - 0.95 us``, and verifies the
Fig. 8 communication pattern (partial sums per round) on the wire.
"""

import pytest

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.core.fits import fit_gsum_model
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import (
    ARCTIC_GSUM_MEASURED,
    ARCTIC_GSUM_OFFSET,
    ARCTIC_GSUM_SLOPE,
    ARCTIC_GSUM_SMP_MEASURED,
    arctic_cost_model,
)
from repro.parallel.globalsum import butterfly_global_sum

from _tables import emit, emit_bench, format_table, us


def des_gsum_latencies():
    return {
        n: des_time_schedule(HyadesCluster(), allreduce_butterfly(n, 8))
        for n in (2, 4, 8, 16)
    }


def test_bench_des_gsum_16way():
    t = des_time_schedule(HyadesCluster(), allreduce_butterfly(16, 8))
    assert t == pytest.approx(18.2e-6, rel=0.10)


def test_bench_fig8_pattern():
    vals = [float(i) for i in range(8)]
    results, trace = butterfly_global_sum(vals, True)
    assert results == [sum(vals)] * 8
    # the partial sums annotated in Fig. 8
    assert trace[0][0] == vals[0] + vals[1]
    assert trace[1][0] == sum(vals[:4])


def test_bench_gsum_table():
    des = des_gsum_latencies()
    model = arctic_cost_model()
    # the paper's methodology (a least-squares line in log2 N) applied
    # to our four DES points, beside the line the paper printed
    fit = fit_gsum_model(des)
    rows = []
    for n in (2, 4, 8, 16):
        k = n.bit_length() - 1
        rows.append(
            [
                f"{n}-way",
                us(des[n]),
                us(ARCTIC_GSUM_MEASURED[n]),
                us(fit(k), 2),
                us(ARCTIC_GSUM_SLOPE * k + ARCTIC_GSUM_OFFSET, 2),
                us(model.gsum_time(n, smp=True)),
                us(ARCTIC_GSUM_SMP_MEASURED[n]),
            ]
        )
    emit(
        "fig08_globalsum",
        format_table(
            "Section 4.2 - global sum latencies (usec)",
            ["config", "DES", "paper", "DES fit", "paper fit", "2xN model", "2xN paper"],
            rows,
        )
        + f"least-squares fit of the DES points: tgsum = {fit.slope * 1e6:.2f} log2 N"
        f" {fit.offset * 1e6:+.2f} us; the paper's: 4.67 log2 N - 0.95 us\n",
    )
    assert fit.slope == pytest.approx(ARCTIC_GSUM_SLOPE, rel=0.15)
    for n in (2, 4, 8, 16):
        assert des[n] == pytest.approx(ARCTIC_GSUM_MEASURED[n], rel=0.10)
    emit_bench(
        "fig08_globalsum",
        virtual_time_s=des[16],
        model_error={
            f"gsum_{n}way_vs_paper": des[n] / ARCTIC_GSUM_MEASURED[n] - 1.0
            for n in (2, 4, 8, 16)
        },
        data={
            **{f"gsum_{n}way_us": des[n] * 1e6 for n in (2, 4, 8, 16)},
            "fit_slope_us": fit.slope * 1e6,
            "fit_offset_us": fit.offset * 1e6,
        },
        units={"virtual_time_s": "16-way gsum, DES seconds"},
    )


def test_bench_message_count():
    """N log2 N messages over log2 N rounds (Section 4.2)."""

    cluster = HyadesCluster()
    des_time_schedule(cluster, allreduce_butterfly(16, 8))
    assert sum(cluster.niu(i).packets_sent for i in range(16)) == 16 * 4
