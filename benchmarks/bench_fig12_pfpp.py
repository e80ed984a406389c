"""Fig. 12 — Potential Floating-Point Performance per interconnect.

Writes the table for Fast Ethernet, Gigabit Ethernet and Arctic (the
reproduction's own interconnect models beside the paper's measured
values) as ``repro report fig12`` builds it, plus the Section 5.4
threshold analysis.
"""

import pytest

from repro.core.constants import ATM_PS_PARAMS, DS_COMM_BUDGET_PAPER, DS_PARAMS, FIG12_PAPER
from repro.core.pfpp import ds_comm_budget
from repro.core.report import SECTIONS

from _tables import emit, format_table, us


def test_bench_fig12_from_models():
    section = SECTIONS["fig12"]()
    emit("fig12_pfpp", section.render())
    ours = section.values
    # headline orderings
    assert ours["Arctic", "pfpp_ds"] > 2 * DS_PARAMS.fds
    assert ours["Gigabit Ethernet", "pfpp_ds"] < DS_PARAMS.fds / 5
    assert ours["Fast Ethernet", "pfpp_ps"] < ATM_PS_PARAMS.fps


def test_bench_threshold_analysis():
    budget = ds_comm_budget(DS_PARAMS.nds, DS_PARAMS.nxy, DS_PARAMS.fds)
    ge = FIG12_PAPER["Gigabit Ethernet"]
    factor = (ge["tgsum"] + ge["texchxy"]) / budget
    emit(
        "fig12_threshold",
        format_table(
            "Section 5.4 - DS communication budget for Pfpp,ds = Fds",
            ["quantity", "value"],
            [
                ["tgsum + texchxy budget (us)", us(budget)],
                ["paper's quoted budget (us)", us(DS_COMM_BUDGET_PAPER, 0)],
                ["Gigabit Ethernet actual (us)", us(ge["tgsum"] + ge["texchxy"])],
                ["GE distance from threshold", f"{factor:.1f}x (paper: 'nearly a factor of ten')"],
            ],
        ),
    )
    assert budget == pytest.approx(DS_COMM_BUDGET_PAPER, rel=0.01)
    assert factor == pytest.approx(10.0, rel=0.05)
