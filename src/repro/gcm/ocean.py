"""The ocean isomorph (OGCM) configuration.

Paper Section 5: the coupled configuration runs the ocean at the same
2.8125-degree lateral resolution; nxyz = 15360 per processor over
sixteen processors implies thirty levels.  Salinity is the tracer.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.gcm.eos import LinearEOS
from repro.gcm.grid import GridParams
from repro.gcm.physics import OceanForcing
from repro.gcm.prognostic import DynamicsParams
from repro.gcm.timestepper import Model, ModelConfig
from repro.gcm.topography import flat_bottom

OCEAN_DEPTH = 4000.0


def ocean_config(
    nx: int = 128,
    ny: int = 64,
    nz: int = 30,
    px: int = 4,
    py: int = 4,
    dt: float = 1200.0,
    cpus_per_node: int = 2,
    physics: Any = "default",
    **overrides,
) -> ModelConfig:
    """The paper's OGCM configuration (2.8125 degrees at defaults)."""
    grid = GridParams(
        nx=nx, ny=ny, nz=nz, lat0=-80.0, lat1=80.0, total_depth=OCEAN_DEPTH
    )
    cfg = ModelConfig(
        name="ocean",
        grid=grid,
        px=px,
        py=py,
        dt=dt,
        cpus_per_node=cpus_per_node,
        eos=LinearEOS(),
        dynamics=DynamicsParams(ah=2.0e5, az=1.0e-3, kh=1.0e3, kz=3.0e-5),
        physics=OceanForcing() if physics == "default" else physics,
        tracer_name="salt",
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def ocean_model(depth: Optional[np.ndarray] = None, **kw) -> Model:
    """Build an initialized OGCM.

    Initial state: an exponential thermocline under a latitude-dependent
    SST, uniform salinity, fluid at rest.
    """
    cfg = ocean_config(**kw)
    if depth is None:
        depth = flat_bottom(cfg.grid.nx, cfg.grid.ny, cfg.grid.total_depth)
    model = Model(cfg, depth=depth)
    p = cfg.grid
    phys: OceanForcing = cfg.physics if cfg.physics is not None else OceanForcing()
    lats = p.lat0 + (np.arange(p.ny) + 0.5) * p.dlat
    sst = phys.theta_star(lats)
    z = model.grid.z_center  # negative downward
    theta0 = np.zeros((p.nz, p.ny, p.nx))
    for k in range(p.nz):
        profile = sst * np.exp(z[k] / 1000.0) + 2.0  # decays to ~2 C abyss
        theta0[k] = profile[:, None]
    salt0 = np.full_like(theta0, phys.salt_star)
    model.initialize(theta=theta0, tracer=salt0)
    return model
