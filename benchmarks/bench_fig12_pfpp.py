"""Fig. 12 — Potential Floating-Point Performance per interconnect.

Regenerates the table for Fast Ethernet, Gigabit Ethernet and Arctic
using the reproduction's own interconnect models (and the paper's
measured values for reference), plus the Section 5.4 threshold analysis.
"""

import pytest

from repro.core.constants import DS_PARAMS, FIG12_PAPER
from repro.core.pfpp import ds_comm_budget, fig12_table

from _tables import emit, format_table, mflops, us


def test_bench_fig12_from_models():
    rows = fig12_table(from_models=True)
    by_name = {r.name: r for r in rows}
    table = []
    for name, r in by_name.items():
        ref = FIG12_PAPER[name]
        table.append(
            [
                name,
                f"{us(r.tgsum)} ({us(ref['tgsum'])})",
                f"{us(r.texchxy)} ({us(ref['texchxy'])})",
                f"{us(r.texchxyz)} ({us(ref['texchxyz'])})",
                f"{mflops(r.pfpp_ps)} ({mflops(ref['pfpp_ps'], 0)})",
                f"{mflops(r.pfpp_ds, 2)} ({mflops(ref['pfpp_ds'])})",
            ]
        )
    table.append(["(Fps, Fds)", "-", "-", "-", "50", "60"])
    emit(
        "fig12_pfpp",
        format_table(
            "Fig. 12 - PFPP at 2.8125 deg on 16 CPUs / 8 SMPs: model (paper), usec & MFlop/s",
            ["interconnect", "tgsum", "texchxy", "texchxyz", "Pfpp,ps", "Pfpp,ds"],
            table,
        ),
    )
    # headline orderings
    assert by_name["Arctic"].pfpp_ds > 2 * 60e6
    assert by_name["Gigabit Ethernet"].pfpp_ds < 60e6 / 5
    assert by_name["Fast Ethernet"].pfpp_ps < 50e6


def test_bench_threshold_analysis():
    budget = ds_comm_budget(DS_PARAMS.nds, DS_PARAMS.nxy, 60e6)
    ge = FIG12_PAPER["Gigabit Ethernet"]
    factor = (ge["tgsum"] + ge["texchxy"]) / budget
    emit(
        "fig12_threshold",
        format_table(
            "Section 5.4 - DS communication budget for Pfpp,ds = Fds",
            ["quantity", "value"],
            [
                ["tgsum + texchxy budget (us)", us(budget)],
                ["paper's quoted budget (us)", "306"],
                ["Gigabit Ethernet actual (us)", us(ge["tgsum"] + ge["texchxy"])],
                ["GE distance from threshold", f"{factor:.1f}x (paper: 'nearly a factor of ten')"],
            ],
        ),
    )
    assert budget == pytest.approx(306e-6, rel=0.01)
    assert factor == pytest.approx(10.0, rel=0.05)
