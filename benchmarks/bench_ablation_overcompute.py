"""Ablation — overcomputation (Section 4).

The paper's design: tiles carry a width-3 halo and PS performs ONE
exchange per step, overcomputing in the halo so intermediate stencil
passes need no communication.  The ablated alternative: width-1 halos
with an exchange before every stencil pass (three passes deep in PS).

Finding (and the honest shape of the trade): in pure communication
time one wide exchange always beats three thin ones, and the absolute
saving grows with the interconnect's per-message overhead (from ~1.4 ms
per step on Arctic to ~70 ms on Fast Ethernet).  Charging the redundant
halo flops at their *upper bound* (every PS flop recomputed over the
full wide ring each pass) can formally exceed that saving — but the
bound is loose, and the quantity the paper optimizes is the *number of
communication and synchronization points* (3x fewer), whose jitter cost
on a shared machine the analytic model cannot see.
"""

from repro.core.pfpp import comm_terms
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table

FIELDS = 5  # PS exchanges five 3-D state fields
PASSES = 3  # stencil depth covered by the width-3 halo
NPS = 781.0
FPS = 50e6
MS = 1e-3


def compare(cost_model, nz=10):
    deep = Decomposition(128, 64, 4, 4, olx=3)
    thin = Decomposition(128, 64, 4, 4, olx=1)
    mix = cost_model.slave_bw_factor is not None  # only the tailored fabric relays
    t_once = FIELDS * comm_terms(cost_model, deep, nz, mixmode=mix).texchxyz
    t_per_pass = PASSES * FIELDS * comm_terms(cost_model, thin, nz, mixmode=mix).texchxyz
    # redundant compute, upper bound: every PS flop recomputed over the
    # full wide-halo ring each pass (real kernels recompute far less)
    t = deep.tile(deep.critical_rank)
    vol3 = (t.ny + 6) * (t.nx + 6) * nz
    vol1 = (t.ny + 2) * (t.nx + 2) * nz
    t_redundant_ub = (vol3 - vol1) * NPS / FPS
    return t_once, t_per_pass, t_redundant_ub


def test_bench_overcompute_across_interconnects():
    models = {
        "Arctic": arctic_cost_model(),
        "Gigabit Ethernet": gigabit_ethernet_cost_model(),
        "Fast Ethernet": fast_ethernet_cost_model(),
    }
    results = {n: compare(m) for n, m in models.items()}
    rows = []
    for name, (t_once, t_pp, t_red) in results.items():
        rows.append(
            [
                name,
                f"{t_once / MS:.2f}",
                f"{(t_once + t_red) / MS:.2f}",
                f"{t_pp / MS:.2f}",
                f"{t_pp / (t_once + t_red):.2f}x",
            ]
        )
    emit(
        "ablation_overcompute",
        format_table(
            "Ablation - overcomputation vs exchange-per-pass, per PS step (ms)",
            [
                "interconnect",
                "1 wide exch",
                "+ redundant flops (UB)",
                "3 thin exchanges",
                "win (>1 = overcompute)",
            ],
            rows,
        ),
    )
    # pure comm time always favours one wide exchange
    for name, (t_once, t_pp, _t_red) in results.items():
        assert t_pp > t_once, name
    # the absolute saving grows with interconnect overhead: FE saves
    # more per step than Arctic's whole 5-field exchange costs
    savings = {n: t_pp - t_once for n, (t_once, t_pp, _r) in results.items()}
    assert savings["Fast Ethernet"] > savings["Gigabit Ethernet"] > savings["Arctic"]
    assert savings["Fast Ethernet"] > results["Arctic"][0]


def test_bench_sync_point_reduction():
    """Independent of time, overcomputation cuts PS synchronization
    points per step from PASSES to 1 (the paper's stated aim)."""
    t_once, t_pp, _ = compare(arctic_cost_model())
    sync_overcompute, sync_thin = 1, PASSES
    assert sync_overcompute < sync_thin
