"""Fig. 11 — performance-model parameters of the coupled simulation.

Regenerates every cell: nxyz/nxy from the decomposition, texch/tgsum
from the interconnect cost model (first-principles composition), and
Nps/Nds by counted kernel inspection of one real model step — printed
against the paper's measured values.
"""

import pytest

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS, OCN_PS_PARAMS
from repro.core.pfpp import comm_terms
from repro.network.costmodel import arctic_cost_model
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table, us


def modelled_comm_params():
    """(texchxyz_atm, texchxyz_ocn, texchxy_ds, tgsum) from the models."""
    cm = arctic_cost_model()
    ps = Decomposition(128, 64, 4, 4, olx=3)
    hyades = dict(ds_decomp=Decomposition(128, 64, 2, 4, olx=1), mixmode=True)
    t_g, t_ds, t_atm, _ = comm_terms(cm, ps, 10, **hyades)
    t_ocn = comm_terms(cm, ps, 30, **hyades).texchxyz
    return t_atm, t_ocn, t_ds, t_g


def counted_kernel_flops(nz=10, steps=2):
    """Count Nps (flops/cell/PS pass) and Nds (flops/column/iteration)
    from an actual model integration at the reference lateral grid."""
    from repro.gcm.atmosphere import atmosphere_model

    m = atmosphere_model(nx=64, ny=32, nz=nz, px=2, py=2, dt=200.0)
    m.run(steps)
    h = m.history[-1]
    cells = 64 * 32 * nz
    cols = 64 * 32
    nps = h.flops_ps / cells
    nds = h.flops_ds / max(h.ni, 1) / cols
    return nps, nds, h.ni


def test_bench_comm_parameters():
    t_atm, t_ocn, t_ds, t_g = modelled_comm_params()
    assert t_atm == pytest.approx(ATM_PS_PARAMS.texchxyz, rel=0.03)
    assert t_ocn == pytest.approx(OCN_PS_PARAMS.texchxyz, rel=0.03)
    assert t_ds == pytest.approx(DS_PARAMS.texchxy, rel=0.08)
    assert t_g == pytest.approx(DS_PARAMS.tgsum, rel=0.01)


def test_bench_counted_flops():
    nps, nds, ni = counted_kernel_flops()
    # Our NumPy kernel runs a leaner numerical recipe than the 1999
    # Fortran model (2nd-order advection, linear EOS, lighter physics):
    # the counted Nps lands in the low hundreds vs the paper's 781.
    assert 150 < nps < 800
    assert 10 < nds < 60


def test_bench_fig11_table():
    t_atm, t_ocn, t_ds, t_g = modelled_comm_params()
    nps, nds, ni = counted_kernel_flops()
    rows = [
        ["Nps (atmos, flops/cell)", f"{nps:.0f} (counted)", f"{ATM_PS_PARAMS.nps}"],
        ["nxyz (atmos)", "5120 (128x64x10 / 16)", f"{ATM_PS_PARAMS.nxyz}"],
        ["texchxyz atmos (us)", us(t_atm), us(ATM_PS_PARAMS.texchxyz)],
        ["Fps (MFlop/s)", "50 (adopted)", "50"],
        ["nxyz (ocean)", "15360 (128x64x30 / 16)", f"{OCN_PS_PARAMS.nxyz}"],
        ["texchxyz ocean (us)", us(t_ocn), us(OCN_PS_PARAMS.texchxyz)],
        ["Nds (flops/col/iter)", f"{nds:.0f} (counted)", f"{DS_PARAMS.nds}"],
        ["nxy (per master)", "1024 (128x64 / 8)", f"{DS_PARAMS.nxy}"],
        ["tgsum 2x8-way (us)", us(t_g), us(DS_PARAMS.tgsum)],
        ["texchxy (us)", us(t_ds), us(DS_PARAMS.texchxy)],
        ["Fds (MFlop/s)", "60 (adopted)", "60"],
    ]
    emit(
        "fig11_params",
        format_table(
            "Fig. 11 - performance model parameters: reproduction vs paper",
            ["parameter", "reproduction", "paper"],
            rows,
        ),
    )
