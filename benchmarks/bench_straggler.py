"""Straggler mitigation: throughput recovered by tile rebalancing.

A single node running 2x/4x/8x slow gates a lockstep BSP run — every
stage waits for the straggler.  With the domain over-decomposed (two
tiles per node), the :class:`~repro.parallel.StragglerMitigator` can
shed tiles off the suspect at checkpoint boundaries and claw back a
large share of the lost throughput; this bench quantifies that share
across slowdown factor and scale, against two controls:

* the same degraded run with mitigation disabled (the loss to recover);
* a healthy run with the mitigator armed (which must make zero moves —
  the no-false-positive control).

Results land in ``benchmarks/out/BENCH_straggler.json`` and the table
in ``benchmarks/out/straggler.txt``.
"""

import numpy as np

from repro.faults import DegradationSchedule, FaultPlan, SlowdownEvent
from repro.parallel import Decomposition, LockstepRuntime, StragglerMitigator

from _tables import emit, emit_bench, format_table

TILE = 16
TILES_PER_NODE = 2
STAGES = 12
CHECKPOINT_EVERY = 4
FLOPS_PER_RANK = 16 * 16 * 200.0


def _grid(n_ranks):
    px = 1
    for p in range(int(np.sqrt(n_ranks)), 0, -1):
        if n_ranks % p == 0:
            px = p
            break
    return px, n_ranks // px


def run_bsp(n_ranks, factor=1.0, mitigate=False):
    """One over-decomposed lockstep run; returns (elapsed, moves)."""
    px, py = _grid(n_ranks)
    decomp = Decomposition(TILE * px, TILE * py, px, py)
    runtime = LockstepRuntime(
        decomp, backend="analytic", n_nodes=n_ranks // TILES_PER_NODE
    )
    if factor > 1.0:
        plan = FaultPlan(
            slowdowns=(SlowdownEvent(node=1, start=0.0, duration=1e9,
                                     factor=factor),)
        )
        runtime.set_degradation(DegradationSchedule(plan))
    mitigator = StragglerMitigator(runtime) if mitigate else None
    zeros = [0.0] * n_ranks
    for stage in range(STAGES):
        runtime.charge_compute(FLOPS_PER_RANK, "ps")
        runtime.global_sum(zeros)
        if mitigator is not None:
            mitigator.observe()
            if stage % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                mitigator.rebalance()
    return runtime.elapsed, (mitigator.moves if mitigator else [])


def sweep(factors=(2.0, 4.0, 8.0), scales=(64, 256)):
    rows = []
    for n in scales:
        t_clean, moves_clean = run_bsp(n, mitigate=True)
        for factor in factors:
            t_none, _ = run_bsp(n, factor=factor)
            t_mit, moves = run_bsp(n, factor=factor, mitigate=True)
            loss = t_none - t_clean
            rows.append(
                {
                    "n_ranks": n,
                    "factor": factor,
                    "clean_s": t_clean,
                    "unmitigated_s": t_none,
                    "mitigated_s": t_mit,
                    "moves": len(moves),
                    "clean_moves": len(moves_clean),
                    "recovered_frac": (t_none - t_mit) / loss if loss > 0 else 0.0,
                }
            )
    return rows


def test_bench_straggler():
    rows = sweep()

    table = [
        [
            r["n_ranks"],
            f"{r['factor']:.0f}x",
            f"{r['clean_s'] * 1e3:.2f}",
            f"{r['unmitigated_s'] * 1e3:.2f}",
            f"{r['mitigated_s'] * 1e3:.2f}",
            r["moves"],
            f"{r['recovered_frac']:.0%}",
        ]
        for r in rows
    ]
    emit(
        "straggler",
        format_table(
            f"Throughput recovered by tile rebalancing ({STAGES} stages, "
            f"single slow node, {TILES_PER_NODE} tiles/node)",
            ["N", "slowdown", "clean (ms)", "no-mit (ms)", "mitigated (ms)",
             "moves", "recovered"],
            table,
        ),
    )
    emit_bench(
        "straggler",
        virtual_time_s=rows[0]["clean_s"],
        model_error=None,
        data={"sweep": rows},
        units={"virtual_time_s": "clean N=64 run, BSP seconds"},
    )

    # The no-false-positive control: a healthy run never moves a tile.
    assert all(r["clean_moves"] == 0 for r in rows)
    # Mitigation must never hurt, and must recover real throughput once
    # the slowdown clears the suspicion threshold.
    assert all(r["mitigated_s"] <= r["unmitigated_s"] * 1.01 for r in rows)
    assert all(
        r["recovered_frac"] > 0.2 for r in rows if r["factor"] >= 4.0
    )
