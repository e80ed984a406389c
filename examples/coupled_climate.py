#!/usr/bin/env python3
"""Coupled atmosphere-ocean climate simulation (paper Section 5.1, Fig. 9).

Runs the two isomorphs concurrently — each on its own half of the
simulated cluster — periodically exchanging SST and surface wind
stress/heat through the coupler, then renders ASCII maps of the ocean
surface temperature and the atmospheric surface zonal wind (the
quantities plotted in the paper's Fig. 9) and reports the combined
sustained performance.

Run:  python examples/coupled_climate.py
"""

from repro.gcm import diagnostics as diag
from repro.gcm.coupled import coupled_model
from repro.viz import ascii_map


def main() -> None:
    cm = coupled_model(
        nx=64, ny=32, nz_atm=5, nz_ocn=8, px=2, py=2, dt=600.0, coupling_interval=6
    )
    print("coupled model: atmosphere 64x32x5 + ocean 64x32x8, "
          f"{cm.atmosphere.decomp.n_ranks}+{cm.ocean.decomp.n_ranks} ranks")

    n_windows = 8
    for w in range(n_windows):
        cm.step_coupled()
        a, o = cm.atmosphere, cm.ocean
        print(
            f"window {w + 1}: t={a.state.time / 3600:.1f} h  "
            f"atmos KE={diag.total_kinetic_energy(a):.2e}  "
            f"ocean KE={diag.total_kinetic_energy(o):.2e}  "
            f"Ni(a)={a.history[-1].ni} Ni(o)={o.history[-1].ni}"
        )

    assert diag.is_finite(cm.atmosphere) and diag.is_finite(cm.ocean)

    print()
    print(ascii_map(cm.ocean.surface_temperature(), "Ocean SST (C) - cf. Fig. 9 lower panel"))
    print()
    ks = cm.atmosphere.grid.nz - 1
    u_sfc = cm.atmosphere.state.to_global("u")[ks]
    print(ascii_map(u_sfc, "Atmos surface zonal wind (m/s) - cf. Fig. 9 upper panel"))

    print("\n--- Section 5.1 accounting ---")
    print(f"coupling events          : {cm.couplings}")
    print(f"coupled virtual elapsed  : {cm.elapsed * 1e3:.1f} ms")
    print(f"combined sustained rate  : {cm.combined_sustained_flops() / 1e6:.0f} MFlop/s "
          "(paper's full production config: 1.6-1.8 GFlop/s on 32 CPUs)")


if __name__ == "__main__":
    main()
