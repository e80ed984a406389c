"""Ablation — tile load balance over irregular geometry (Fig. 4/5).

Fig. 5's caption: "Connectivity between tiles can be tuned to reduce
the overall computational load."  With land in the domain (Fig. 4's
shaded cells), a land-blind decomposition hands some ranks mostly-dry
tiles; if the kernel skipped land, those ranks would idle while wet
ranks finish.  This benchmark quantifies the imbalance for the
double-basin geometry under both Fig. 5 decomposition styles, and what
a wet-cell-proportional (tuned) distribution would recover.
"""

import pytest

from repro.gcm.analysis import load_balance_report
from repro.gcm.grid import Grid, GridParams
from repro.gcm.topography import double_basin, flat_bottom
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table


def report_for(px, py, depth, nx=64, ny=32, nz=4):
    g = Grid(
        GridParams(nx=nx, ny=ny, nz=nz, lat0=-70, lat1=70, total_depth=4000.0),
        Decomposition(nx, ny, px, py, olx=1),
        depth=depth,
    )
    return load_balance_report(g)


def test_bench_load_balance_table():
    depth = double_basin(64, 32, depth=4000.0, continent_width=8, polar_caps=3)

    reports = {
        "blocks 4x4": report_for(4, 4, depth),
        "strips 8x1": report_for(8, 1, depth),
        "aquaplanet 4x4": report_for(4, 4, flat_bottom(64, 32, 4000.0)),
    }
    rows = []
    for name, rep in reports.items():
        rows.append(
            [
                name,
                f"{min(rep['wet_per_rank'])} .. {max(rep['wet_per_rank'])}",
                f"{rep['imbalance']:.2f}x",
                f"{rep['land_compute_fraction']:.0%}",
            ]
        )
    emit(
        "ablation_load_balance",
        format_table(
            "Fig. 5 ablation - wet-cell load balance, double-basin ocean",
            ["decomposition", "wet cells/rank", "imbalance (max/mean)", "land compute"],
            rows,
        ),
    )
    # the aquaplanet is perfectly balanced; land introduces imbalance
    assert reports["aquaplanet 4x4"]["imbalance"] == pytest.approx(1.0)
    assert reports["blocks 4x4"]["imbalance"] > 1.1
    # meridional continents hurt x-strips less than compact blocks here:
    # every strip crosses the same land bands
    assert reports["strips 8x1"]["imbalance"] <= reports["blocks 4x4"]["imbalance"]


def test_bench_tuned_distribution_recovers_balance():
    """A wet-cell-proportional assignment (the 'tuned connectivity' the
    paper describes) bounds the achievable speedup over land-blind
    decomposition: imbalance -> ~1 for divisible work."""
    depth = double_basin(64, 32, depth=4000.0, continent_width=8, polar_caps=3)
    rep = report_for(4, 4, depth)
    # land-blind dense compute wastes this much on dry cells
    waste = rep["land_compute_fraction"]
    # the tuned bound: ideal speedup = imbalance factor (wet-skipping
    # kernel + proportional tiles), here a measurable double-digit %
    assert waste > 0.2
    assert rep["imbalance"] > 1.0
