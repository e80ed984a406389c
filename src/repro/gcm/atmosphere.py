"""The atmospheric isomorph (AGCM) configuration.

Paper Section 5: the atmosphere runs at 2.8125-degree resolution
(128 x 64 lateral grid) with an intermediate-complexity physics package;
per-processor nxyz = 5120 over sixteen processors implies ten levels.
Moisture ``q`` takes the tracer slot (salinity's isomorph).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.gcm.constants import EARTH
from repro.gcm.eos import IdealGasEOS
from repro.gcm.grid import GridParams
from repro.gcm.physics import AtmospherePhysics
from repro.gcm.prognostic import DynamicsParams
from repro.gcm.timestepper import Model, ModelConfig
from repro.parallel.runtime import MachineModel

#: Scale height of the model atmosphere column, m.
ATMOS_COLUMN_HEIGHT = 20_000.0


def atmosphere_config(
    nx: int = 128,
    ny: int = 64,
    nz: int = 10,
    px: int = 4,
    py: int = 4,
    dt: float = 405.0,
    physics: Any = "default",
    **overrides,
) -> ModelConfig:
    """The paper's AGCM configuration (2.8125 degrees at defaults)."""
    grid = GridParams(
        nx=nx,
        ny=ny,
        nz=nz,
        lat0=-80.0,
        lat1=80.0,
        total_depth=ATMOS_COLUMN_HEIGHT,
    )
    cfg = ModelConfig(
        name="atmosphere",
        grid=grid,
        px=px,
        py=py,
        dt=dt,
        eos=IdealGasEOS(theta_ref=EARTH.theta_ref),
        dynamics=DynamicsParams(ah=2.0e5, az=1.0e-2, kh=2.0e4, kz=1.0e-2),
        physics=AtmospherePhysics() if physics == "default" else physics,
        tracer_name="q",
        machine=MachineModel(),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def atmosphere_model(**kw) -> Model:
    """Build an initialized AGCM.

    Initial state: radiative-equilibrium theta plus a small zonally
    asymmetric perturbation to break symmetry, moist surface layer.
    """
    cfg = atmosphere_config(**kw)
    model = Model(cfg)
    p = cfg.grid
    phys: AtmospherePhysics = cfg.physics if cfg.physics is not None else AtmospherePhysics()
    lats = p.lat0 + (np.arange(p.ny) + 0.5) * p.dlat
    lons = (np.arange(p.nx) + 0.5) * p.dlon
    theta0 = np.zeros((p.nz, p.ny, p.nx))
    q0 = np.zeros_like(theta0)
    for k in range(p.nz):
        base = phys.theta_eq(lats, k, p.nz)[:, None]
        ripple = 0.5 * np.sin(3 * np.deg2rad(lons))[None, :] * np.cos(
            np.deg2rad(lats)
        )[:, None]
        theta0[k] = base + ripple
    # moist lowest levels
    q0[-1] = 0.7 * phys.q_sat(theta0[-1])
    q0[-2] = 0.4 * phys.q_sat(theta0[-2])
    model.initialize(theta=theta0, tracer=q0)
    return model
