"""Fig. 10 — sustained performance of the ocean isomorph.

Writes the table (vector-machine reference rows plus the Hyades rows
computed from the performance model) as ``repro report fig10`` builds
it, and cross-checks the computed single-processor rate against a real
(small) serial integration's flop-weighted rate.
"""

import pytest

from repro.core.report import SECTIONS

from _tables import emit


@pytest.fixture(scope="module")
def section():
    return SECTIONS["fig10"]()


def test_bench_hyades_rows(section):
    assert 0.55 < section.values["Hyades", 16] < 0.9


def test_bench_fig10_table(section):
    emit("fig10_sustained", section.render())
    ours, paper = section.values, section.paper
    assert ours["Hyades", 1] == pytest.approx(paper["Hyades", 1], rel=0.08)
    # shape: 16-CPU Hyades comparable to a single vector CPU, well below
    # a 4-CPU vector machine
    assert ours["Cray Y-MP", 1] * 0.8 < ours["Hyades", 16] < ours["Cray C90", 4]
    # parallel speedup near the paper's "fifteen times"
    assert 10 < ours["Hyades", 16] / ours["Hyades", 1] < 16


def test_bench_speedup_vs_gcm_run():
    """Cross-check: the lockstep-runtime GCM on 16 vs 1 ranks shows the
    same speedup regime as the model-derived Fig. 10 rows."""
    from repro.gcm.ocean import ocean_model

    def run(px, py, cpn):
        m = ocean_model(nx=64, ny=32, nz=8, px=px, py=py, dt=900.0, cpus_per_node=cpn)
        m.run(3)
        return m.runtime.sustained_flops()

    s16 = run(4, 4, 2)
    s1 = run(1, 1, 1)
    assert 6 < s16 / s1 < 16.5
