"""Fig. 9 / Section 5.1 — the coupled atmosphere-ocean simulation.

Fig. 9 is a qualitative plot of model output (ocean currents, zonal
winds); this benchmark integrates a reduced coupled configuration and
reports the corresponding summary statistics: circulation develops in
both components, fields stay bounded, the coupler moves SST/stress, and
the combined sustained rate scales toward the paper's 1.6-1.8 GFlop/s
regime when extrapolated to the production configuration.
"""

import numpy as np

from repro.core.constants import COUPLED_SUSTAINED_RANGE, DS_PARAMS, OCN_PS_PARAMS, ATM_PS_PARAMS
from repro.core.perf_model import PerformanceModel
from repro.gcm import diagnostics as diag
from repro.gcm.coupled import coupled_model

from _tables import emit, emit_bench, format_table


def run_coupled(windows=3):
    cm = coupled_model(
        nx=32, ny=16, nz_atm=5, nz_ocn=8, px=2, py=2, dt=300.0, coupling_interval=2
    )
    cm.run(windows)
    return cm


def production_combined_rate(ni=60.0):
    """Model-predicted combined rate of the full production run."""
    total = 0.0
    for ref in (ATM_PS_PARAMS, OCN_PS_PARAMS):
        pm = PerformanceModel(
            ps=ref, ds=DS_PARAMS
        )
        total += pm.sustained_flops(ni, n_ps_ranks=16, n_ds_ranks=8)
    return total


def test_bench_coupled_integration():
    cm = run_coupled()
    atm, ocn = cm.atmosphere, cm.ocean
    assert diag.is_finite(atm) and diag.is_finite(ocn)
    sst = ocn.surface_temperature()
    ke_a = diag.total_kinetic_energy(atm)
    ke_o = diag.total_kinetic_energy(ocn)
    combined_model_rate = production_combined_rate()
    emit(
        "fig09_coupled",
        format_table(
            "Fig. 9 / Sec. 5.1 - coupled run summary (reduced configuration)",
            ["quantity", "value", "paper context"],
            [
                ["coupling events", str(cm.couplings), "periodic BC exchange"],
                ["SST range (C)", f"{sst.min():.1f} .. {sst.max():.1f}", "Fig. 9 ocean panel"],
                ["atmos KE (J m^3/kg)", f"{ke_a:.2e}", "Fig. 9 wind panel"],
                ["ocean KE (J m^3/kg)", f"{ke_o:.2e}", "Fig. 9 currents panel"],
                [
                    "coupled sustained (reduced run)",
                    f"{cm.combined_sustained_flops() / 1e6:.0f} MF/s",
                    "-",
                ],
                [
                    "production combined (model)",
                    f"{combined_model_rate / 1e9:.2f} GF/s",
                    "1.6-1.8 GFlop/s",
                ],
            ],
        ),
    )
    # both components develop circulation
    assert ke_a > 0 and ke_o > 0
    # the production-scale model extrapolation lands in/near the band
    assert combined_model_rate > 0.7 * COUPLED_SUSTAINED_RANGE[0]
    assert combined_model_rate < 1.2 * COUPLED_SUSTAINED_RANGE[1]
    paper_mid = 0.5 * (COUPLED_SUSTAINED_RANGE[0] + COUPLED_SUSTAINED_RANGE[1])
    emit_bench(
        "fig09_coupled",
        virtual_time_s=cm.elapsed,
        model_error={
            "production_combined_vs_paper_mid": combined_model_rate / paper_mid - 1.0
        },
        data={
            "couplings": cm.couplings,
            "reduced_sustained_mflops": cm.combined_sustained_flops() / 1e6,
            "production_combined_gflops": combined_model_rate / 1e9,
        },
        units={"virtual_time_s": "BSP critical-path seconds"},
    )


def test_bench_coupler_moves_boundary_conditions():
    cm = run_coupled()
    # atmosphere received an SST field spanning warm tropics/cold poles
    sst_tiles = cm.atmosphere.coupling["sst"]
    vals = np.concatenate([t.ravel() for t in sst_tiles])
    assert vals.max() - vals.min() > 3.0
    # ocean received wind stress with structure
    taux = np.concatenate([t.ravel() for t in cm.ocean.coupling["taux"]])
    assert np.abs(taux).max() > 0
