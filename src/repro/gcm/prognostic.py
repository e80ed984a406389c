"""The PS block: G-term evaluation and provisional state (Fig. 6).

For each tile — or each batch of tiles stacked on a leading axis, with
``rank`` the matching slice of ranks — entirely from data within the
tile + halo (the overcomputation contract):

* ``G_v = gv(v, b)`` — advection, Coriolis, metric, dissipation and
  forcing tendencies for momentum;
* ``G_theta``, ``G_tracer`` — advection-diffusion tendencies for the
  thermodynamic variables (the paper omits these from its outline "for
  clarity"; they have the same form as gv());
* hydrostatic pressure ``p_hy = hy(b)`` from the EOS buoyancy.

Time stepping is quasi-second-order Adams-Bashforth (the paper's
"second order in time" kernel):
``G^(n+1/2) = (1.5 + eps) G^n - (0.5 + eps) G^(n-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcm import operators as op
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter


@dataclass(frozen=True)
class DynamicsParams:
    """Mixing coefficients and AB2 stabilizer."""

    ah: float = 1.0e5  # horizontal viscosity, m^2/s
    az: float = 1.0e-3  # vertical viscosity, m^2/s
    kh: float = 1.0e3  # horizontal diffusivity, m^2/s
    kz: float = 1.0e-5  # vertical diffusivity, m^2/s
    ab2_eps: float = 0.01
    #: Biharmonic (scale-selective) viscosity, m^4/s; 0 disables it.
    ah4: float = 0.0
    #: Tracer advection: "centered" (2nd order, the model default) or
    #: "upwind" (1st-order donor cell, monotone).
    advection_scheme: str = "centered"


def compute_g_terms(
    rank,
    grid: Grid,
    u: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    tracer: np.ndarray,
    buoyancy: np.ndarray,
    params: DynamicsParams,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate all G tendencies and diagnostics for one tile, or for
    the batch of tiles ``rank`` slices (fields stacked to match).

    Returns ``(gu, gv, gtheta, gtracer, wflux, phy)``.
    """
    ut, vt = op.transports(u, v, grid, rank, flops)
    wflux = op.vertical_transport(ut, vt, flops)

    gu = op.advect_u(u, ut, vt, wflux, grid, rank, flops)
    gv = op.advect_v(v, ut, vt, wflux, grid, rank, flops)
    averages = op.corner_averages(u, v)
    cor_u, cor_v = op.coriolis(u, v, grid, rank, flops, averages)
    met_u, met_v = op.metric_terms(u, v, grid, rank, flops, averages)
    del averages  # (batch-sized temporaries are dropped as soon as they are spent)
    forcing_u, forcing_v = cor_u + met_u, cor_v + met_v
    del cor_u, cor_v, met_u, met_v
    gu += forcing_u + op.viscosity_u(u, params.ah, params.az, grid, rank, flops, ah4=params.ah4)
    del forcing_u
    gv += forcing_v + op.viscosity_v(v, params.ah, params.az, grid, rank, flops, ah4=params.ah4)
    del forcing_v
    flops.add("g_assembly", 4 * u.size)

    scheme = params.advection_scheme
    factors = op.tracer_flux_factors(ut, vt, wflux, scheme)
    tendencies = []
    for c in (theta, tracer):
        g = op.advect_tracer(c, ut, vt, wflux, grid, rank, flops, scheme, factors)
        g += op.laplacian_diffusion(c, params.kh, grid, rank, flops)
        g += op.vertical_diffusion(c, params.kz, grid, rank, flops)
        tendencies.append(g)
    flops.add("g_assembly", 4 * theta.size)

    phy = op.hydrostatic_pressure(buoyancy, grid, flops)
    return gu, gv, *tendencies, wflux, phy


def ab2_extrapolate(
    g: np.ndarray, g_prev: np.ndarray, eps: float, first_step: bool, flops: FlopCounter
) -> np.ndarray:
    """Adams-Bashforth-2 extrapolation to time level n+1/2.

    The first step falls back to forward Euler (no history yet).
    3 flops/cell.
    """
    if first_step:
        return g
    out = (1.5 + eps) * g - (0.5 + eps) * g_prev
    flops.add("ab2", 3 * g.size)
    return out


def provisional_velocity(
    rank,
    grid: Grid,
    u: np.ndarray,
    v: np.ndarray,
    gu_ab: np.ndarray,
    gv_ab: np.ndarray,
    phy: np.ndarray,
    dt: float,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray]:
    """``v* = v^n + dt (G^(n+1/2) - grad p_hy)`` (masked).  ~8 flops/cell."""
    geo = grid.geometry
    gpx, gpy = op.pressure_gradient(phy, grid, rank, flops)
    u_star = (u + dt * (gu_ab + gpx)) * geo.open_w[rank]
    v_star = (v + dt * (gv_ab + gpy)) * geo.open_s[rank]
    flops.add("provisional", 8 * u.size)
    return u_star, v_star


def correct_velocity(
    rank,
    grid: Grid,
    u_star: np.ndarray,
    v_star: np.ndarray,
    ps: np.ndarray,
    dt: float,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray]:
    """``v^(n+1) = v* - dt grad p_s`` applied at every level.  ~6 f/cell."""
    geo = grid.geometry
    ps = ps[..., None, :, :]
    gpx = -(ps - op.xm(ps)) / geo.dxc[rank]
    gpy = -(ps - op.ym(ps)) / geo.dyc[rank]
    u_new = (u_star + dt * gpx) * geo.open_w[rank]
    v_new = (v_star + dt * gpy) * geo.open_s[rank]
    flops.add("correction", 6 * u_star.size)
    return u_new, v_new
