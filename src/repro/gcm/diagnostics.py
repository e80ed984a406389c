"""Model diagnostics: conservation, balance and stability measures."""

from __future__ import annotations

import numpy as np

from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator, depth_integrate
from repro.gcm.timestepper import Model
from repro.parallel.exchange import exchange_halos


def depth_integrated_divergence(model: Model) -> float:
    """Max |div <U>| (m^3/s) of the current velocity field.

    After the DS correction the depth-integrated flow should be
    non-divergent (eq. 2) to solver tolerance.
    """
    u, v = model.state["u"].copy(), model.state["v"].copy()
    exchange_halos(model.decomp, u)
    exchange_halos(model.decomp, v)
    # (the grid covers only the step's window of the state's tiles)
    uv = depth_integrate(model.grid, slice(None), u[model.window], v[model.window], FlopCounter())
    divs = EllipticOperator(model.grid).divergence(*uv)
    return float(np.abs(model.grid.decomp.global_view(divs)).max())


def _interiors(model: Model):
    """Per rank: the interior index of the state's tile arrays and of
    the grid's (whose halo is narrower)."""
    for r, (t, g) in enumerate(zip(model.decomp.tiles, model.grid.decomp.tiles)):
        yield r, (Ellipsis,) + t.interior, (Ellipsis,) + g.interior


def total_kinetic_energy(model: Model) -> float:
    """Volume-integrated 0.5 (u^2 + v^2), J/kg * m^3."""
    total = 0.0
    for r, inner, grid_inner in _interiors(model):
        vol = model.grid.cell_volumes(r)[grid_inner]
        u = model.state["u"][r][inner]
        v = model.state["v"][r][inner]
        total += float(np.sum(0.5 * (u**2 + v**2) * vol))
    return total


def tracer_inventory(model: Model, name: str = "theta") -> float:
    """Volume integral of a center tracer (conservation check)."""
    total = 0.0
    for r, inner, grid_inner in _interiors(model):
        vol = model.grid.cell_volumes(r)[grid_inner]
        total += float(np.sum(model.state[name][r][inner] * vol))
    return total


def max_cfl(model: Model) -> float:
    """Advective CFL number max(|u| dt / dx, |v| dt / dy)."""
    dt = model.config.dt
    worst = 0.0
    for r, inner, grid_inner in _interiors(model):
        u = np.abs(model.state["u"][r][inner]).max() if model.state["u"][r][inner].size else 0.0
        v = np.abs(model.state["v"][r][inner]).max() if model.state["v"][r][inner].size else 0.0
        dx = model.grid.dxc[r][grid_inner].min()
        dy = model.grid.dyc[r][grid_inner].min()
        worst = max(worst, float(u) * dt / float(dx), float(v) * dt / float(dy))
    return worst


def is_finite(model: Model) -> bool:
    """No NaNs/infs anywhere in the prognostic state."""
    return all(
        bool(np.all(np.isfinite(model.state[name])))
        for name in ("u", "v", "theta", "tracer", "ps")
    )
