"""Extension study — scaling along the paper's two implicit axes.

Not a table in the paper, but the analysis its Section 5.4 sets up:
sustained performance vs processor count per interconnect (where
parallel efficiency collapses without a system-area network), and vs
resolution (the grain-size crossover at which commodity interconnects
become viable, per the "coarse grain scenarios" remark).
"""

from repro.core.scaling import cpu_sweep, model_at, resolution_sweep
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)

from _tables import emit, format_table


def test_bench_cpu_scaling_per_interconnect():
    models = {
        "Arctic": arctic_cost_model(),
        "Gigabit Ethernet": gigabit_ethernet_cost_model(),
        "Fast Ethernet": fast_ethernet_cost_model(),
    }
    counts = (1, 2, 4, 8, 16, 32, 64)
    sweeps = {n: cpu_sweep(counts, cost_model=m) for n, m in models.items()}
    rows = []
    for n_cpus_idx, n_cpus in enumerate(counts):
        row = [n_cpus]
        for name in models:
            p = sweeps[name][n_cpus_idx]
            row.append(f"{p.sustained / 1e6:7.0f} ({p.efficiency:4.0%})")
        rows.append(row)
    emit(
        "scaling_cpus",
        format_table(
            "Extension - sustained MFlop/s (efficiency) vs CPUs, 2.8125 deg atmosphere",
            ["CPUs"] + [f"{n}" for n in models],
            rows,
        ),
    )
    arctic = sweeps["Arctic"]
    fe = sweeps["Fast Ethernet"]
    # Arctic keeps >=60 % efficiency through 32 CPUs
    assert all(p.efficiency > 0.6 for p in arctic if 1 < p.n_cpus <= 32)
    # Fast Ethernet collapses below 20 % by 16 CPUs
    assert next(p for p in fe if p.n_cpus == 16).efficiency < 0.2
    # Arctic's aggregate rate still grows to 64 CPUs; FE's has peaked
    assert arctic[-1].sustained > arctic[-2].sustained
    fe_rates = [p.sustained for p in fe]
    assert max(fe_rates) != fe_rates[-1]


def test_bench_resolution_crossover():
    """Refining the grid makes tiles coarser-per-message: GE's
    efficiency recovers with problem size (the 'coarse grain' regime),
    while Arctic is already compute-bound at the paper's resolution."""
    ge = resolution_sweep((1, 2, 4), cost_model=gigabit_ethernet_cost_model())
    arctic = resolution_sweep((1, 2, 4), cost_model=arctic_cost_model())
    rows = []
    for a, g in zip(arctic, ge):
        rows.append(
            [
                f"{a.nx}x{a.ny}",
                f"{a.efficiency:.0%}",
                f"{g.efficiency:.0%}",
                f"{a.pfpp_ds / 1e6:.1f}",
                f"{g.pfpp_ds / 1e6:.1f}",
            ]
        )
    emit(
        "scaling_resolution",
        format_table(
            "Extension - efficiency and Pfpp,ds vs resolution on 16 CPUs",
            ["grid", "Arctic eff.", "GE eff.", "Arctic Pfpp,ds (M)", "GE Pfpp,ds (M)"],
            rows,
        ),
    )
    # GE efficiency grows with problem size; Arctic's headroom shrinks
    ge_eff = [p.efficiency for p in ge]
    assert ge_eff == sorted(ge_eff)
    assert ge_eff[0] < 0.5 < ge_eff[-1] + 0.3  # tiny at paper scale
    assert arctic[0].efficiency > 0.7


def test_bench_ds_dominates_at_scale():
    """As CPUs grow at fixed problem size, the fine-grain DS phase's
    share of the step grows — the fundamental strong-scaling limit the
    PFPP analysis predicts."""

    res = []
    for n in (4, 16, 64):
        p = model_at(n, cost_model=arctic_cost_model())
        step = p.tps + 60 * p.tds
        res.append((n, 60 * p.tds / step))
    fracs = [f for _, f in res]
    assert fracs == sorted(fracs)
