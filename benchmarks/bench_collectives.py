"""Collective-communications autotuner: crossover curves + DES check.

Emits ``BENCH_collectives.json`` with the analytic cost-vs-size curve of
every allreduce algorithm at N=16/64/256, the tuner's winner per point
(the crossover the autotuner exists to find), and a packet-level DES
cross-validation of the winning schedules at N=16.
"""

import pytest

from repro.collectives import Autotuner, cost_table, des_time_schedule
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import ARCTIC_GSUM_MEASURED

from _tables import emit, emit_bench, format_table, us

SIZES = [8, 64, 1024, 8192, 65536, 524288]
NODE_COUNTS = (16, 64, 256)


def crossover_curves():
    """{N: {"costs": {alg: [s,...]}, "winner": [alg,...]}} over SIZES."""
    tuner = Autotuner()
    out = {}
    for n in NODE_COUNTS:
        table = cost_table("allreduce", n, SIZES)
        winners = [tuner.plan("allreduce", n, s).algorithm for s in SIZES]
        out[n] = {"costs": table, "winner": winners}
    return out


def test_bench_collectives_crossover():
    curves = crossover_curves()

    for n, cur in curves.items():
        rows = []
        algs = sorted(cur["costs"])
        for i, size in enumerate(SIZES):
            rows.append(
                [str(size)]
                + [us(cur["costs"][a][i]) for a in algs]
                + [cur["winner"][i]]
            )
        emit(
            f"collectives_n{n}",
            format_table(
                f"allreduce cost vs size at N={n} (usec)",
                ["bytes"] + algs + ["winner"],
                rows,
            ),
        )

    # The headline: the tuner switches algorithms along the size axis.
    for n in NODE_COUNTS:
        winners = curves[n]["winner"]
        assert winners[0] == "butterfly", "small messages must pick butterfly"
        assert len(set(winners)) >= 2, f"no crossover at N={n}"
        assert winners[-1] != "butterfly", "large messages must switch"

    # DES cross-validation of the winning schedules at N=16.
    tuner = Autotuner()
    crossval = {}
    for size in (8, 1024, 65536):
        plan = tuner.plan("allreduce", 16, size)
        cv = tuner.crossvalidate(plan, HyadesCluster())
        crossval[size] = {"algorithm": plan.algorithm, **cv}
        assert cv["rel_err"] <= 0.10, (size, cv)
    # ... and the tuned doubleword gsum still hits the paper's Fig. 8.
    gsum16 = tuner.allreduce_time(16, 8)
    assert gsum16 == pytest.approx(ARCTIC_GSUM_MEASURED[16], rel=0.10)

    emit_bench(
        "collectives",
        virtual_time_s=crossval[8]["des_s"],
        model_error={
            f"allreduce_16x{size}B": cv["rel_err"]
            for size, cv in crossval.items()
        },
        data={
            "sizes_bytes": SIZES,
            "curves_us": {
                str(n): {
                    a: [c * 1e6 for c in cur["costs"][a]]
                    for a in cur["costs"]
                }
                for n, cur in curves.items()
            },
            "winners": {str(n): cur["winner"] for n, cur in curves.items()},
            "crossval_16": {
                str(size): {
                    "algorithm": cv["algorithm"],
                    "predicted_us": cv["predicted_s"] * 1e6,
                    "des_us": cv["des_s"] * 1e6,
                    "rel_err": cv["rel_err"],
                }
                for size, cv in crossval.items()
            },
            "gsum_16way_us": gsum16 * 1e6,
        },
        units={"virtual_time_s": "16-way 8B allreduce, DES seconds"},
    )


def test_bench_des_timing_16way():
    from repro.collectives import build

    t = des_time_schedule(HyadesCluster(), build("allreduce", "butterfly", 16, 8))
    assert t == pytest.approx(ARCTIC_GSUM_MEASURED[16], rel=0.10)
