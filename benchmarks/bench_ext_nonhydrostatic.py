"""Extension — the non-hydrostatic scenario under the performance model.

Section 6: "The MIT GCM algorithm is designed to apply to a wide
variety of geophysical fluid problems.  The performance model we have
derived is valid for all these scenarios."  The non-hydrostatic mode
replaces the 2-D DS solve with a 3-D Poisson solve whose per-iteration
communication is an order of magnitude larger (3-D width-1 halos), so
the PFPP analysis shifts: interconnect quality matters even more.
"""

from repro.core.pfpp import comm_terms, pfpp_ds
from repro.gcm.ocean import ocean_model
from repro.network.costmodel import arctic_cost_model, gigabit_ethernet_cost_model
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table, us


def nh_comm_times(cost_model, nz=30):
    """(tgsum, texch 3-D width-1) for the non-hydrostatic solve."""
    d = Decomposition(128, 64, 4, 4, olx=1)  # the 3-D solver trades width-1 halos
    # tailored primitives: mix-mode relay, gsum over the 8 SMP masters
    smp = cost_model.slave_bw_factor is not None
    terms = comm_terms(cost_model, d, nz, mixmode=smp, n_nodes=8 if smp else 16)
    return terms.tgsum, terms.texchxyz


def test_bench_nh_pfpp_table():
    """Pfpp of the 3-D solver iteration, per interconnect."""
    rows = []
    # counted ~36 flops/cell/iteration over nxyz cells per rank
    nds3, nxyz = 36, 128 * 64 * 30 // 16

    out = {}
    for cm in (arctic_cost_model(), gigabit_ethernet_cost_model()):
        tg, tx = nh_comm_times(cm)
        out[cm.name] = (tg, tx, pfpp_ds(nds3, nxyz, tg, tx))
    for name, (tg, tx, p) in out.items():
        rows.append([name, us(tg), us(tx), f"{p / 1e6:.1f}"])
    emit(
        "ext_nonhydrostatic",
        format_table(
            "Extension - non-hydrostatic (3-D) solver iteration, 1 deg-class ocean",
            ["interconnect", "tgsum (us)", "texch 3-D w1 (us)", "Pfpp,3-D solve (MF/s)"],
            rows,
        ),
    )
    # Arctic keeps the 3-D solve compute-bound; GE cannot
    assert out["Arctic"][2] > 60e6
    assert out["Gigabit Ethernet"][2] < 60e6


def test_bench_nh_step_cost_breakdown():
    """End-to-end: the measured virtual cost of hydrostatic vs
    non-hydrostatic steps of the same configuration."""

    def run(nonhydro):
        m = ocean_model(
            nx=32, ny=16, nz=6, px=2, py=2, dt=600.0, nonhydrostatic=nonhydro
        )
        m.run(4)
        return m.performance_breakdown()

    bd_nh = run(True)
    bd_h = run(False)
    emit(
        "ext_nonhydrostatic_cost",
        format_table(
            "Extension - step cost, hydrostatic vs non-hydrostatic (virtual ms)",
            ["quantity", "hydrostatic", "non-hydrostatic"],
            [
                ["t_step (ms)", f"{bd_h['t_step'] * 1e3:.2f}", f"{bd_nh['t_step'] * 1e3:.2f}"],
                ["solver Ni (2-D)", f"{bd_h['ni']:.0f}", f"{bd_nh['ni']:.0f}"],
            ],
        ),
    )
    assert bd_nh["t_step"] > 2 * bd_h["t_step"]
