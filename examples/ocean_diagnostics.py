#!/usr/bin/env python3
"""Ocean circulation diagnostics + the step's communication schedule.

Runs the wind- and buoyancy-forced ocean to a young spun-up state and
computes the science products a climate researcher would ask the
"personal supercomputer" for: zonal-mean temperature, the meridional
overturning streamfunction, barotropic transport, and an ideal-age
tracer — then shows the virtual-time Gantt strip of one model step
(the compute/exchange/global-sum schedule the paper's Section 5.2
performance model formalizes).

Run:  python examples/ocean_diagnostics.py
"""

import numpy as np

from repro.gcm import diagnostics as diag
from repro.gcm.analysis import (
    IdealAgeTracer,
    barotropic_transport,
    overturning_streamfunction,
    zonal_mean,
)
from repro.gcm.grid import GridParams
from repro.gcm.timestepper import Model, ModelConfig
from repro.gcm.physics import OceanForcing
from repro.gcm.eos import LinearEOS
from repro.gcm.prognostic import DynamicsParams
from repro.obs.trace import tracing
from repro.parallel.runtime import LockstepRuntime
from repro.parallel.tiling import Decomposition
from repro.viz import anomaly_map, ascii_map, profile_bars, render_timeline


def build_model():
    cfg = ModelConfig(
        name="ocean",
        grid=GridParams(nx=48, ny=24, nz=8, lat0=-70, lat1=70, total_depth=4000.0),
        px=2,
        py=2,
        dt=1800.0,
        eos=LinearEOS(),
        dynamics=DynamicsParams(ah=2e5, az=1e-3, kh=1e3, kz=3e-5),
        physics=OceanForcing(),
    )
    d = Decomposition(48, 24, 2, 2, olx=cfg.olx)
    rt = LockstepRuntime(d, cpus_per_node=2)
    m = Model(cfg, runtime=rt)
    # thermocline initial state
    lats = cfg.grid.lat0 + (np.arange(24) + 0.5) * cfg.grid.dlat
    sst = cfg.physics.theta_star(lats)
    z = m.grid.z_center
    theta0 = np.stack([sst[:, None] * np.exp(z[k] / 1000.0) + 2.0 for k in range(8)])
    theta0 = np.broadcast_to(theta0, (8, 24, 48)).copy()
    salt0 = np.full_like(theta0, 35.0)
    m.initialize(theta=theta0, tracer=salt0)
    return m


def main() -> None:
    m = build_model()
    age = IdealAgeTracer(m)

    spinup = 60
    m.run(spinup)
    age.attach()
    for _ in range(40):
        m.step()
        age.update()
    assert diag.is_finite(m)
    print(f"integrated {m.state.step_count} steps "
          f"({m.state.time / 86400:.1f} model days)\n")

    print(ascii_map(m.surface_temperature(), "SST (C)"))
    print()
    print(anomaly_map(barotropic_transport(m), "barotropic zonal transport (m^2/s)"))

    psi = overturning_streamfunction(m)
    print(f"\noverturning streamfunction: max {psi.max():.3f} Sv, "
          f"min {psi.min():.3f} Sv")
    zm = zonal_mean(m, "theta")
    print(f"zonal-mean theta: surface {np.nanmean(zm[0]):.1f} C, "
          f"abyss {np.nanmean(zm[-1]):.1f} C")

    prof = age.mean_age_profile() / 86400.0
    labels = [f"{z:6.0f} m" for z in m.grid.z_center]
    print()
    print(profile_bars(prof, labels=labels, title="ideal age by depth (days):"))

    # one more step, traced: its bsp spans are the BSP schedule
    with tracing() as tracer:
        m.step()
    spans = [(e["name"], e["ts"], e["ts"] + e["dur"])
             for e in tracer.events if e.get("cat") == "bsp"]
    t_first = spans[0][1]
    print()
    print(render_timeline(
        [(k, (t0 - t_first) * 1e-6, (t1 - t_first) * 1e-6) for k, t0, t1 in spans],
        title="virtual-time schedule of one step (#=compute ==exchange $=solver):",
    ))


if __name__ == "__main__":
    main()
