"""Model diagnostics: conservation, balance and stability measures."""

from __future__ import annotations

import numpy as np

from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.gcm.timestepper import Model
from repro.parallel.exchange import exchange_halos


def depth_integrated_divergence(model: Model) -> float:
    """Max |div <U>| (m^3/s) of the current velocity field.

    After the DS correction the depth-integrated flow should be
    non-divergent (eq. 2) to solver tolerance.
    """
    ell = EllipticOperator(model.grid) if model.ds_grid is not model.grid else model.elliptic
    u, v = model.state["u"].copy(), model.state["v"].copy()
    exchange_halos(model.decomp, u)
    exchange_halos(model.decomp, v)
    divs = ell.divergence(*ell.depth_integrate(slice(None), u, v, FlopCounter()))
    return float(np.abs(model.decomp.global_view(divs)).max())


def total_kinetic_energy(model: Model) -> float:
    """Volume-integrated 0.5 (u^2 + v^2), J/kg * m^3."""
    total = 0.0
    o = model.decomp.olx
    for r, t in enumerate(model.decomp.tiles):
        sl3 = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
        vol = model.grid.cell_volumes(r)[sl3]
        u = model.state["u"][r][sl3]
        v = model.state["v"][r][sl3]
        total += float(np.sum(0.5 * (u**2 + v**2) * vol))
    return total


def tracer_inventory(model: Model, name: str = "theta") -> float:
    """Volume integral of a center tracer (conservation check)."""
    total = 0.0
    o = model.decomp.olx
    for r, t in enumerate(model.decomp.tiles):
        sl3 = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
        vol = model.grid.cell_volumes(r)[sl3]
        total += float(np.sum(model.state[name][r][sl3] * vol))
    return total


def max_cfl(model: Model) -> float:
    """Advective CFL number max(|u| dt / dx, |v| dt / dy)."""
    dt = model.config.dt
    worst = 0.0
    o = model.decomp.olx
    for r, t in enumerate(model.decomp.tiles):
        sl3 = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
        sl2 = (slice(o, o + t.ny), slice(o, o + t.nx))
        u = np.abs(model.state["u"][r][sl3]).max() if model.state["u"][r][sl3].size else 0.0
        v = np.abs(model.state["v"][r][sl3]).max() if model.state["v"][r][sl3].size else 0.0
        dx = model.grid.dxc[r][sl2].min()
        dy = model.grid.dyc[r][sl2].min()
        worst = max(worst, float(u) * dt / float(dx), float(v) * dt / float(dy))
    return worst


def is_finite(model: Model) -> bool:
    """No NaNs/infs anywhere in the prognostic state."""
    return all(
        bool(np.all(np.isfinite(model.state[name])))
        for name in ("u", "v", "theta", "tracer", "ps")
    )
