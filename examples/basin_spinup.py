#!/usr/bin/env python3
"""Wind-driven double-gyre spin-up in a closed basin with topography.

The paper's Fig. 4 shows how the finite-volume grid sculpts to land; this
example exercises that machinery on a classic problem: an idealized
two-basin ocean (meridional continents, polar caps) spun up by zonal
wind stress.  Western-intensified gyres develop — the Gulf-Stream-like
response that makes this the canonical OGCM smoke test — while the
shaved-cell ridge variant demonstrates partial cells.

Run:  python examples/basin_spinup.py
"""

import numpy as np

from repro.gcm import diagnostics as diag
from repro.gcm.ocean import ocean_model
from repro.gcm.topography import double_basin, midlatitude_ridge


def streamfunction_like(model) -> np.ndarray:
    """Depth-integrated zonal transport (a cheap circulation proxy)."""
    u = model.state.to_global("u")
    drf = model.grid.drf[:, None, None]
    return np.sum(u * drf, axis=0)


def main() -> None:
    nx, ny, nz = 64, 32, 6
    depth = double_basin(nx, ny, depth=3000.0, continent_width=6, polar_caps=2)
    model = ocean_model(nx=nx, ny=ny, nz=nz, px=2, py=2, dt=1800.0, depth=depth)
    wet = model.grid.total_wet_cells()
    print(f"double-basin ocean: {nx}x{ny}x{nz}, {wet} wet cells "
          f"({wet / (nx * ny * nz):.0%} of the box - the grid sculpts to land)")

    days = 4
    steps_per_day = int(86400 / model.config.dt)
    for d in range(days):
        model.run(steps_per_day)
        ke = diag.total_kinetic_energy(model)
        print(f"day {d + 1}: KE={ke:.3e}  Ni~{model.history[-1].ni}  "
              f"CFL={diag.max_cfl(model):.3f}")
    assert diag.is_finite(model)

    tr = streamfunction_like(model)
    # continents must carry no transport
    assert np.abs(tr[:, :6]).max() == 0.0
    print("\ndepth-integrated zonal transport (m^2/s): "
          f"min={tr.min():.2f} max={tr.max():.2f}")
    # western intensification: strongest flow in the western third of
    # each basin (columns just east of each continent)
    west = np.abs(tr[:, 6:24]).max()
    east = np.abs(tr[:, 24:32]).max()
    print(f"max |transport| western third: {west:.2f}, eastern third: {east:.2f} "
          f"-> western intensification x{west / max(east, 1e-12):.1f}")

    print("\n--- shaved-cell variant: mid-basin ridge ---")
    ridge = midlatitude_ridge(nx, ny, depth=3000.0, ridge_height=2000.0)
    m2 = ocean_model(nx=nx, ny=ny, nz=nz, px=2, py=2, dt=1800.0, depth=ridge)
    partial = 0
    o = m2.grid.decomp.olx
    for r, t in enumerate(m2.grid.decomp.tiles):
        hf = m2.grid.hfac_c[r][:, o : o + t.ny, o : o + t.nx]
        partial += int(np.count_nonzero((hf > 0) & (hf < 1)))
    print(f"ridge produces {partial} partial ('shaved') cells")
    m2.run(12)
    assert diag.is_finite(m2)
    print("12 steps over the ridge: stable, "
          f"KE={diag.total_kinetic_energy(m2):.3e}")


if __name__ == "__main__":
    main()
