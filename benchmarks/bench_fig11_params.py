"""Fig. 11 — performance-model parameters of the coupled simulation.

Writes every cell as ``repro report fig11`` builds it: nxyz/nxy from the
decomposition, texch/tgsum from the interconnect cost model
(first-principles composition), and Nps/Nds by counted kernel
inspection of one real model step — against the paper's measured values.
"""

import pytest

from repro.core.report import SECTIONS

from _tables import emit


@pytest.fixture(scope="module")
def section():
    return SECTIONS["fig11"]()


def test_bench_comm_parameters(section):
    ours, paper = section.values, section.paper
    assert ours["texchxyz_atm"] == pytest.approx(paper["texchxyz_atm"], rel=0.03)
    assert ours["texchxyz_ocn"] == pytest.approx(paper["texchxyz_ocn"], rel=0.03)
    assert ours["texchxy"] == pytest.approx(paper["texchxy"], rel=0.08)
    assert ours["tgsum"] == pytest.approx(paper["tgsum"], rel=0.01)


def test_bench_counted_flops(section):
    # Our NumPy kernel runs a leaner numerical recipe than the 1999
    # Fortran model (2nd-order advection, linear EOS, lighter physics):
    # the counted Nps lands in the low hundreds vs the paper's 781.
    assert 150 < section.values["nps"] < 800
    assert 10 < section.values["nds"] < 60


def test_bench_fig11_table(section):
    emit("fig11_params", section.render())
