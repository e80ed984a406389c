"""The per-tile PS/DS step, kept as a differential oracle.

This is ``repro.gcm.timestepper.Model.step`` and everything it called
as they stood while the step was a Python loop over tiles: the C-grid
kernels of ``gcm/operators.py``, the G-term assembly and velocity
updates of ``gcm/prognostic.py``, both physics packages, the
non-hydrostatic tendency and correction, the per-tile elliptic RHS, the
per-entry halo-fill plan of ``parallel/exchange.py`` and the per-field,
per-rank pricing loop of ``LockstepRuntime.exchange`` — moved here
verbatim (methods became functions taking the object they were bound
to; ``op.`` prefixes fell away because the kernels are local).  The
library now runs one batch-polymorphic implementation over stacked
tiles; ``tests/gcm/test_step_equivalence.py`` checks it bitwise against
:func:`reference_step`.  It must never be imported from ``src/`` or
``benchmarks/``.

The oracle computes every tile whole, halos included, so it reads the
full-tile ``Grid`` (and non-hydrostatic operator) it builds once from
the model's configuration and decomposition — the model keeps only its
step's window of the tiles; ``grid.x[rank]`` and ``state[name][rank]``
are per-tile arrays or views either way.  The CG solver, the DS/NH
charging and the solver hooks are the model's own.  One deliberate
change since the move: the convective adjustment counts the mixed pairs
of interior columns only (its mixing is untouched), so a column is not
counted again in every halo that holds a copy of it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gcm import timestepper
from repro.gcm.cg import CGResult
from repro.gcm.grid import Grid
from repro.gcm.nonhydrostatic import NonHydrostaticOperator
from repro.gcm.operators import FlopCounter
from repro.gcm.physics import AtmospherePhysics
from repro.gcm.prognostic import DynamicsParams
from repro.gcm.timestepper import StepStats
from repro.parallel.exchange import HaloExchanger
from repro.parallel.runtime import DS_FLOP_RATE
from repro.parallel.tiling import Decomposition
from repro.precision import CastingOperator


# -- repro/gcm/operators.py ---------------------------------------------------

def xm(a: np.ndarray) -> np.ndarray:
    """Value at i-1 (wraps at tile edge; halo absorbs)."""
    out = np.empty_like(a)
    out[..., 1:] = a[..., :-1]
    out[..., 0] = a[..., -1]
    return out


def xp(a: np.ndarray) -> np.ndarray:
    """Value at i+1."""
    out = np.empty_like(a)
    out[..., :-1] = a[..., 1:]
    out[..., -1] = a[..., 0]
    return out


def ym(a: np.ndarray) -> np.ndarray:
    """Value at j-1."""
    out = np.empty_like(a)
    out[..., 1:, :] = a[..., :-1, :]
    out[..., 0, :] = a[..., -1, :]
    return out


def yp(a: np.ndarray) -> np.ndarray:
    """Value at j+1."""
    out = np.empty_like(a)
    out[..., :-1, :] = a[..., 1:, :]
    out[..., -1, :] = a[..., 0, :]
    return out


def face_divergence(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Fused ``(xp(fx) - fx) + (yp(fy) - fy)`` — the flux-divergence
    pattern of every FV operator here, computed with one temporary and
    the same per-element operation order as the unfused expression."""
    div = xp(fx)
    div -= fx
    tmp = yp(fy)
    tmp -= fy
    div += tmp
    return div


def transports(u, v, grid, rank, flops: FlopCounter):
    """Volume transports through west and south faces (m^3/s).

    ``uTrans[k,j,i] = u * dyG * drF * hFacW``; similarly vTrans.
    3 flops/cell each.
    """
    drf = grid.drf[:, None, None]
    ut = u * grid.dyg[rank][None] * drf * grid.hfac_w[rank]
    vt = v * grid.dxg[rank][None] * drf * grid.hfac_s[rank]
    flops.add("transports", 6 * u.size)
    return ut, vt


def vertical_transport(ut, vt, flops: FlopCounter):
    """Volume flux through cell *top* faces from continuity.

    Integrating from the bottom (no-flux floor):
    ``wFlux[k] = wFlux[k+1] + hdiv[k]`` where ``hdiv`` is the horizontal
    flux divergence of layer k; a positive wFlux[k] is upward through
    the top of layer k.  4 flops/cell.
    """
    hdiv = face_divergence(ut, vt)
    # layer-k volume budget: hdiv[k] + wflux[k] - wflux[k+1] = 0 with
    # wflux[nz] = 0 at the floor  =>  wflux[k] = -sum_{k'>=k} hdiv[k']
    wflux = -np.flip(np.cumsum(np.flip(hdiv, 0), axis=0), 0)
    flops.add("w_continuity", 4 * ut.size)
    return wflux


def w_from_flux(wflux, grid, rank, flops: FlopCounter):
    """Vertical velocity at top faces: w = wFlux / rA (1 flop/cell)."""
    w = wflux / grid.ra[rank][None]
    flops.add("w_diag", wflux.size)
    return w


def advect_tracer(c, ut, vt, wflux, grid, rank, flops: FlopCounter, scheme: str = "centered"):
    """Flux-form advection tendency of tracer c.

    ``scheme="centered"`` — 2nd-order centered fluxes (the model's
    default; non-diffusive but dispersive).  ``scheme="upwind"`` —
    1st-order donor-cell fluxes (monotone: creates no new extrema, at
    the price of numerical diffusion).  Returns
    Gc_adv = -div(flux)/vol over open cells.  ~16-20 flops/cell.
    """
    if scheme == "centered":
        fx = ut * 0.5 * (c + xm(c))
        fy = vt * 0.5 * (c + ym(c))
    elif scheme == "upwind":
        fx = np.where(ut >= 0, ut * xm(c), ut * c)
        fy = np.where(vt >= 0, vt * ym(c), vt * c)
    else:
        raise ValueError(f"unknown advection scheme {scheme!r}")
    # vertical: interface k carries flux between layers k-1 and k
    nz = c.shape[0]
    fz = np.zeros_like(c)
    if nz > 1:
        if scheme == "upwind":
            # upward flux (w > 0) carries the lower cell's value
            fz[1:] = np.where(
                wflux[1:] >= 0, wflux[1:] * c[1:], wflux[1:] * c[:-1]
            )
        else:
            fz[1:] = wflux[1:] * 0.5 * (c[1:] + c[:-1])
    # top face of layer 0 (surface): rigid lid, no advective flux
    div = face_divergence(fx, fy)
    # vertical net out of layer k: out through its top minus in through
    # its bottom (the floor, fz[nz], carries nothing)
    net_vert = fz.copy()
    net_vert[:-1] -= fz[1:]
    vol = grid.hfac_c[rank] * grid.drf[:, None, None] * grid.ra[rank][None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol > 0, -(div + net_vert) / np.where(vol > 0, vol, 1.0), 0.0)
    flops.add("advect_tracer", 16 * c.size)
    return g


def laplacian_diffusion(c, kh, grid, rank, flops: FlopCounter):
    """Horizontal Laplacian diffusion tendency ``kh * div(grad c)``.

    Masked FV form: fluxes through closed faces vanish.  ~14 flops/cell.
    """
    drf = grid.drf[:, None, None]
    dy_dx = grid.dyg[rank][None] / grid.dxc[rank][None]
    dx_dy = grid.dxg[rank][None] / grid.dyc[rank][None]
    fx = kh * dy_dx * (c - xm(c)) * grid.hfac_w[rank] * drf
    fy = kh * dx_dy * (c - ym(c)) * grid.hfac_s[rank] * drf
    div = face_divergence(fx, fy)
    vol = grid.hfac_c[rank] * drf * grid.ra[rank][None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol > 0, div / np.where(vol > 0, vol, 1.0), 0.0)
    flops.add("laplacian_diffusion", 14 * c.size)
    return g


def vertical_diffusion(c, kz, grid, rank, flops: FlopCounter):
    """Vertical diffusion tendency ``d/dz (kz dc/dz)``.  ~8 flops/cell."""
    nz = c.shape[0]
    if nz == 1:
        return np.zeros_like(c)
    drf = grid.drf
    drc = 0.5 * (drf[:-1] + drf[1:])  # center-to-center spacing
    flux = np.zeros_like(c)  # flux through top face of layer k (k>=1)
    flux[1:] = kz * (c[:-1] - c[1:]) / drc[:, None, None]
    mask = grid.hfac_c[rank]
    flux[1:] *= (mask[:-1] > 0) * (mask[1:] > 0)
    g = np.zeros_like(c)
    g[:] = flux / drf[:, None, None]  # in through top
    g[:-1] -= flux[1:] / drf[:-1, None, None]  # out through bottom
    flops.add("vertical_diffusion", 8 * c.size)
    return g


def advect_u(u, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of u (west-face points).

    Zonal fluxes at cell centers, meridional at SW corners, vertical at
    u-column interfaces.  ~24 flops/cell.
    """
    # zonal momentum flux at cell centers: mean transport times mean u
    fzon = 0.25 * (ut + xp(ut)) * (u + xp(u))
    # meridional flux at corners (i-1/2, j-1/2)
    fmer = 0.25 * (vt + xm(vt)) * (u + ym(u))
    # vertical flux at u-point interfaces
    nz = u.shape[0]
    fver = np.zeros_like(u)
    if nz > 1:
        wz = 0.5 * (wflux + xm(wflux))
        fver[1:] = 0.5 * wz[1:] * (u[1:] + u[:-1])
    net = (fzon - xm(fzon)) + (yp(fmer) - fmer)
    net_v = fver.copy()
    net_v[:-1] -= fver[1:]
    vol_u = (
        grid.hfac_w[rank]
        * grid.drf[:, None, None]
        * 0.5
        * (grid.ra[rank] + xm(grid.ra[rank]))[None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol_u > 0, -(net + net_v) / np.where(vol_u > 0, vol_u, 1.0), 0.0)
    flops.add("advect_u", 24 * u.size)
    return g


def advect_v(v, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of v (south-face points).  ~24 f/cell."""
    fzon = 0.25 * (ut + ym(ut)) * (v + xm(v))  # at corners
    fmer = 0.25 * (vt + yp(vt)) * (v + yp(v))  # at centers
    nz = v.shape[0]
    fver = np.zeros_like(v)
    if nz > 1:
        wz = 0.5 * (wflux + ym(wflux))
        fver[1:] = 0.5 * wz[1:] * (v[1:] + v[:-1])
    net = (xp(fzon) - fzon) + (fmer - ym(fmer))
    net_v = fver.copy()
    net_v[:-1] -= fver[1:]
    vol_v = (
        grid.hfac_s[rank]
        * grid.drf[:, None, None]
        * 0.5
        * (grid.ra[rank] + ym(grid.ra[rank]))[None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol_v > 0, -(net + net_v) / np.where(vol_v > 0, vol_v, 1.0), 0.0)
    flops.add("advect_v", 24 * v.size)
    return g


def coriolis(u, v, grid, rank, flops: FlopCounter):
    """Coriolis tendencies (+f v at u-points, -f u at v-points).

    Energy-conserving 4-point averages.  ~14 flops/cell.
    """
    fc = grid.fc[rank][None]
    v_at_u = 0.25 * (v + yp(v) + xm(v) + xm(yp(v)))
    u_at_v = 0.25 * (u + xp(u) + ym(u) + ym(xp(u)))
    f_u = 0.5 * (fc + xm(fc))
    f_v = 0.5 * (fc + ym(fc))
    gu = f_u * v_at_u * (grid.hfac_w[rank] > 0)
    gv = -f_v * u_at_v * (grid.hfac_s[rank] > 0)
    flops.add("coriolis", 14 * u.size)
    return gu, gv


def metric_terms(u, v, grid, rank, flops: FlopCounter):
    """Spherical metric tendencies: +u v tan(phi)/a, -u^2 tan(phi)/a.

    ~10 flops/cell.
    """
    a = grid.c.radius
    tan_lat = np.tan(np.deg2rad(grid.lat_c[rank]))[None]
    v_at_u = 0.25 * (v + yp(v) + xm(v) + xm(yp(v)))
    u_at_v = 0.25 * (u + xp(u) + ym(u) + ym(xp(u)))
    gu = (u * v_at_u) * tan_lat / a * (grid.hfac_w[rank] > 0)
    gv = -(u_at_v**2) * tan_lat / a * (grid.hfac_s[rank] > 0)
    flops.add("metric", 10 * u.size)
    return gu, gv


def viscosity_u(u, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for u.  Biharmonic dissipation ``-ah4 lap(lap(u))`` is the standard
    scale-selective choice: it damps grid-scale noise while leaving the
    large-scale circulation nearly untouched.  ~20-34 flops/cell.
    """
    g = laplacian_points(u, ah, grid.hfac_w[rank], grid, rank)
    if ah4 > 0.0:
        lap = laplacian_points(u, 1.0, grid.hfac_w[rank], grid, rank)
        g -= laplacian_points(lap, ah4, grid.hfac_w[rank], grid, rank)
        flops.add("biharmonic_u", 14 * u.size)
    g += vertical_second_derivative(u, az, grid)
    flops.add("viscosity_u", 20 * u.size)
    return g


def viscosity_v(v, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for v (see :func:`viscosity_u`).  ~20-34 flops/cell.
    """
    g = laplacian_points(v, ah, grid.hfac_s[rank], grid, rank)
    if ah4 > 0.0:
        lap = laplacian_points(v, 1.0, grid.hfac_s[rank], grid, rank)
        g -= laplacian_points(lap, ah4, grid.hfac_s[rank], grid, rank)
        flops.add("biharmonic_v", 14 * v.size)
    g += vertical_second_derivative(v, az, grid)
    flops.add("viscosity_v", 20 * v.size)
    return g


def laplacian_points(a, coef, mask, grid, rank):
    """Simple masked 5-point Laplacian at the field's own points."""
    dxc = grid.dxc[rank][None]
    dyc = grid.dyc[rank][None]
    open_pt = mask > 0
    lap = (
        (xp(a) - 2 * a + xm(a)) / dxc**2 + (yp(a) - 2 * a + ym(a)) / dyc**2
    )
    return coef * lap * open_pt


def vertical_second_derivative(a, coef, grid):
    """coef * d2a/dz2 with one-sided top/bottom differences."""
    nz = a.shape[0]
    if nz == 1 or coef == 0.0:
        return np.zeros_like(a)
    drf = grid.drf[:, None, None]
    out = np.zeros_like(a)
    out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / (drf[1:-1] ** 2)
    out[0] = (a[1] - a[0]) / (drf[0] ** 2)
    out[-1] = (a[-2] - a[-1]) / (drf[-1] ** 2)
    return coef * out


def hydrostatic_pressure(b, grid, flops: FlopCounter):
    """Hydrostatic pressure potential from buoyancy (eq. in Section 3.1).

    ``dphi/dz = b`` integrated downward from the surface (phi(0) = 0):
    phi[k] = phi[k-1] - 0.5*(b[k-1] + b[k]) * drC.  ~4 flops/cell.
    """
    nz = b.shape[0]
    drf = grid.drf
    phy = np.zeros_like(b)
    phy[0] = -b[0] * 0.5 * drf[0]
    for k in range(1, nz):
        drc = 0.5 * (drf[k - 1] + drf[k])
        phy[k] = phy[k - 1] - 0.5 * (b[k - 1] + b[k]) * drc
    flops.add("hydrostatic", 4 * b.size)
    return phy


def pressure_gradient(p, grid, rank, flops: FlopCounter):
    """(-dp/dx at u-points, -dp/dy at v-points), masked.  ~6 flops/cell."""
    gx = -(p - xm(p)) / grid.dxc[rank][None] * (grid.hfac_w[rank] > 0)
    gy = -(p - ym(p)) / grid.dyc[rank][None] * (grid.hfac_s[rank] > 0)
    flops.add("pressure_gradient", 6 * p.size)
    return gx, gy


# -- repro/gcm/prognostic.py --------------------------------------------------

def compute_g_terms(
    rank: int,
    grid: Grid,
    u: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    tracer: np.ndarray,
    buoyancy: np.ndarray,
    params: DynamicsParams,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate all G tendencies and diagnostics for one tile.

    Returns ``(gu, gv, gtheta, gtracer, wflux, phy)``.
    """
    ut, vt = transports(u, v, grid, rank, flops)
    wflux = vertical_transport(ut, vt, flops)

    gu = advect_u(u, ut, vt, wflux, grid, rank, flops)
    gv = advect_v(v, ut, vt, wflux, grid, rank, flops)
    cor_u, cor_v = coriolis(u, v, grid, rank, flops)
    met_u, met_v = metric_terms(u, v, grid, rank, flops)
    gu += cor_u + met_u + viscosity_u(
        u, params.ah, params.az, grid, rank, flops, ah4=params.ah4
    )
    gv += cor_v + met_v + viscosity_v(
        v, params.ah, params.az, grid, rank, flops, ah4=params.ah4
    )
    flops.add("g_assembly", 4 * u.size)

    scheme = params.advection_scheme
    gtheta = advect_tracer(theta, ut, vt, wflux, grid, rank, flops, scheme=scheme)
    gtheta += laplacian_diffusion(theta, params.kh, grid, rank, flops)
    gtheta += vertical_diffusion(theta, params.kz, grid, rank, flops)
    gtracer = advect_tracer(tracer, ut, vt, wflux, grid, rank, flops, scheme=scheme)
    gtracer += laplacian_diffusion(tracer, params.kh, grid, rank, flops)
    gtracer += vertical_diffusion(tracer, params.kz, grid, rank, flops)
    flops.add("g_assembly", 4 * theta.size)

    phy = hydrostatic_pressure(buoyancy, grid, flops)
    return gu, gv, gtheta, gtracer, wflux, phy


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
    rank: int,
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
    gpx, gpy = pressure_gradient(phy, grid, rank, flops)
    u_star = (u + dt * (gu_ab + gpx)) * (grid.hfac_w[rank] > 0)
    v_star = (v + dt * (gv_ab + gpy)) * (grid.hfac_s[rank] > 0)
    flops.add("provisional", 8 * u.size)
    return u_star, v_star


def correct_velocity(
    rank: int,
    grid: Grid,
    u_star: np.ndarray,
    v_star: np.ndarray,
    ps: np.ndarray,
    dt: float,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray]:
    """``v^(n+1) = v* - dt grad p_s`` applied at every level.  ~6 f/cell."""
    gpx = -(ps - xm(ps)) / grid.dxc[rank]
    gpy = -(ps - ym(ps)) / grid.dyc[rank]
    u_new = (u_star + dt * gpx[None]) * (grid.hfac_w[rank] > 0)
    v_new = (v_star + dt * gpy[None]) * (grid.hfac_s[rank] > 0)
    flops.add("correction", 6 * u_star.size)
    return u_new, v_new


# -- repro/gcm/physics.py -----------------------------------------------------

def _adjust_column_pairs(theta: np.ndarray, drf: np.ndarray, interior, max_sweeps: int) -> int:
    """Mix adjacent statically unstable layers to a stable fixed point.

    Stability convention (both isomorphs, see module docstring): stable
    when theta is non-increasing with array index k.  Mass(thickness)-
    weighted pair mixing preserves the column heat content exactly;
    sweeps repeat until no pair mixes (a fully unstable column needs
    several cascaded sweeps).  Returns the mixed-pair count of the
    ``interior`` columns.
    """
    tol = 1e-10
    nz = theta.shape[0]
    mixed_total = 0
    for _ in range(max_sweeps):
        mixed = 0
        for k in range(nz - 2, -1, -1):
            unstable = theta[k] < theta[k + 1] - tol
            if np.any(unstable):
                w1, w2 = drf[k], drf[k + 1]
                mean = (w1 * theta[k] + w2 * theta[k + 1]) / (w1 + w2)
                theta[k] = np.where(unstable, mean, theta[k])
                theta[k + 1] = np.where(unstable, mean, theta[k + 1])
                mixed += int(np.count_nonzero(unstable))
                mixed_total += int(np.count_nonzero(unstable[interior]))
        if mixed == 0:
            break
    return mixed_total


def _atm_apply_tendencies(
    self,
    rank: int,
    grid: Grid,
    u: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    q: np.ndarray,
    gu: np.ndarray,
    gv: np.ndarray,
    gtheta: np.ndarray,
    gq: np.ndarray,
    flops: FlopCounter,
    sst: Optional[np.ndarray] = None,
) -> None:
    """Add the package's tendencies to the G arrays for one tile."""
    nz = theta.shape[0]
    lat = grid.lat_c[rank]
    # Newtonian cooling (4 flops/cell)
    for k in range(nz):
        gtheta[k] += (self.theta_eq(lat, k, nz) - theta[k]) / self.tau_rad
    # Rayleigh drag near the surface (4 flops/cell on drag levels)
    for k in range(nz - self.n_drag_levels, nz):
        sigma = (k - (nz - 1 - self.n_drag_levels)) / max(self.n_drag_levels, 1)
        gu[k] += -u[k] * sigma / self.tau_fric
        gv[k] += -v[k] * sigma / self.tau_fric
    # Surface fluxes from the SST (coupling field)
    if sst is not None:
        ks = nz - 1
        gtheta[ks] += self.c_sens * (sst - theta[ks])
        gq[ks] += self.c_evap * np.maximum(sst - theta[ks] + 5.0, 0.0)
    # Large-scale condensation with latent heating
    qs = self.q_sat(theta)
    excess = np.maximum(q - qs, 0.0)
    gq -= excess / self.condense_timescale
    gtheta += self.latent_factor * excess / self.condense_timescale
    flops.add("atmos_physics", 22 * theta.size)


def _atm_convective_adjustment(
    self, theta: np.ndarray, grid: Grid, rank: int, flops: FlopCounter
) -> int:
    """Dry adjustment: level k sits above level k+1 (atmosphere
    convention), so the column is unstable where theta[k] < theta[k+1];
    unstable pairs are mass-weighted-mixed to a stable fixed point."""
    mixed = _adjust_column_pairs(theta, grid.drf, grid.decomp.tiles[rank].interior, max_sweeps=100)
    flops.add("convective_adjustment", 6 * theta.size)
    return mixed


def _ocn_apply_tendencies(
    self,
    rank: int,
    grid: Grid,
    u: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    salt: np.ndarray,
    gu: np.ndarray,
    gv: np.ndarray,
    gtheta: np.ndarray,
    gsalt: np.ndarray,
    flops: FlopCounter,
    taux: Optional[np.ndarray] = None,
    tauy: Optional[np.ndarray] = None,
    theta_surf: Optional[np.ndarray] = None,
    rho0: float = 1035.0,
) -> None:
    """Add wind stress and surface restoring to the G arrays."""
    lat = grid.lat_c[rank]
    tx = taux if taux is not None else self.wind_stress(lat)
    drf0 = grid.drf[0]
    hw = grid.hfac_w[rank][0]
    gu[0] += np.where(hw > 0, tx / (rho0 * drf0), 0.0)
    if tauy is not None:
        hs = grid.hfac_s[rank][0]
        gv[0] += np.where(hs > 0, tauy / (rho0 * drf0), 0.0)
    target = theta_surf if theta_surf is not None else self.theta_star(lat)
    mask0 = grid.hfac_c[rank][0] > 0
    gtheta[0] += np.where(mask0, (target - theta[0]) / self.tau_restore, 0.0)
    gsalt[0] += np.where(mask0, (self.salt_star - salt[0]) / self.salt_restore, 0.0)
    flops.add("ocean_forcing", 10 * theta[0].size)


def _ocn_convective_adjustment(
    self, theta: np.ndarray, grid: Grid, rank: int, flops: FlopCounter
) -> int:
    """Ocean static instability: with k = 0 at the sea surface the
    column is unstable where theta[k] < theta[k+1] (warm under
    cold); mixed pairwise to a stable fixed point."""
    mixed = _adjust_column_pairs(theta, grid.drf, grid.decomp.tiles[rank].interior, max_sweeps=100)
    flops.add("convective_adjustment", 6 * theta.size)
    return mixed


# -- repro/gcm/nonhydrostatic.py ----------------------------------------------

def compute_g_w(
    rank: int,
    grid: Grid,
    w: np.ndarray,
    ut: np.ndarray,
    vt: np.ndarray,
    wflux: np.ndarray,
    buoyancy: np.ndarray,
    ah: float,
    az: float,
    flops: FlopCounter,
) -> np.ndarray:
    """Vertical-momentum tendency for face-staggered w.

    ``G_w = -adv(w) + Ah lap(w) + Az d2w/dz2``.

    Buoyancy does **not** appear here: the hydrostatic pressure ``phy``
    is integrated so that its discrete vertical gradient cancels the
    face-interpolated buoyancy *exactly*
    (``(phy[k] - phy[k-1]) / drC = -(b[k] + b[k-1]) / 2``), so the net
    vertical forcing beyond the non-hydrostatic pressure gradient is
    zero — the same arrangement as MITgcm's CALC_GW.  What makes the
    mode non-hydrostatic is w's *inertia*: it accelerates under
    advection and the 3-D pressure instead of adjusting instantaneously
    to continuity.  The rigid-lid face (k = 0) carries no tendency.
    ~30 flops/cell.
    """
    del buoyancy  # carried entirely by the hydrostatic pressure
    nz = w.shape[0]
    # face mask: open when both adjacent layers are open; lid closed
    mask = np.zeros_like(w, dtype=bool)
    if nz > 1:
        mask[1:] = (grid.hfac_c[rank][1:] > 0) & (grid.hfac_c[rank][:-1] > 0)
    # advection of w (treated with the tracer machinery; adequate for
    # the tendency's nonlinear part)
    g = advect_tracer(w, ut, vt, wflux, grid, rank, flops)
    g = g + laplacian_points(w, ah, grid.hfac_c[rank], grid, rank)
    g = g + vertical_second_derivative(w, az, grid)
    flops.add("g_w", 6 * w.size)
    return g * mask


def rhs_from_velocity(
    operator,
    u_tiles: List[np.ndarray],
    v_tiles: List[np.ndarray],
    w_tiles: List[np.ndarray],
    dt: float,
    flops: FlopCounter,
) -> List[np.ndarray]:
    """RHS = div3(v*) / dt in finite-volume form.  ~14 flops/cell.

    ``w[k]`` is the velocity through the top face of layer k (the
    rigid lid keeps ``w[0] = 0``; the floor face is implicit).
    """
    g = operator.grid
    drf = g.drf[:, None, None]
    out = []
    for r, (u, v, w) in enumerate(zip(u_tiles, v_tiles, w_tiles)):
        fx = u * g.hfac_w[r] * drf * g.dyg[r][None]
        fy = v * g.hfac_s[r] * drf * g.dxg[r][None]
        div = (xp(fx) - fx) + (yp(fy) - fy)
        fz = w * g.ra[r][None]  # upward volume flux through top of k
        div = div + fz
        div[:-1] -= fz[1:]
        out.append(np.where(operator.wet[r], div / dt, 0.0))
        flops.add("nh_rhs", 12 * u.size)
    return out


def nh_correct(
    operator,
    rank: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    q: np.ndarray,
    dt: float,
    flops: FlopCounter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) -= dt grad q (masked).

    The vertical gradient lands on the faces where w lives, exactly
    adjoint to :meth:`rhs_from_velocity`'s divergence, so the
    corrected field is non-divergent to solver tolerance.
    ~10 flops/cell.
    """
    g = operator.grid
    gx = (q - xm(q)) / g.dxc[rank][None]
    gy = (q - ym(q)) / g.dyc[rank][None]
    nz = q.shape[0]
    gz = np.zeros_like(q)  # at top faces; lid face stays zero
    face_open = np.zeros_like(q, dtype=bool)
    if nz > 1:
        drc = 0.5 * (g.drf[:-1] + g.drf[1:])[:, None, None]
        gz[1:] = (q[:-1] - q[1:]) / drc
        face_open[1:] = (g.hfac_c[rank][1:] > 0) & (g.hfac_c[rank][:-1] > 0)
    u2 = (u - dt * gx) * (g.hfac_w[rank] > 0)
    v2 = (v - dt * gy) * (g.hfac_s[rank] > 0)
    w2 = (w - dt * gz) * face_open
    flops.add("nh_correct", 10 * q.size)
    return u2, v2, w2


# -- repro/gcm/pressure.py ----------------------------------------------------

def rhs_from_transport(
    operator,
    uint_tiles: List[np.ndarray],
    vint_tiles: List[np.ndarray],
    dt: float,
    flops: FlopCounter,
) -> List[np.ndarray]:
    """RHS = div(<U*>)/dt in finite-volume form (~8 flops/column).

    ``uint``/``vint`` are depth-integrated provisional velocities
    (m^2/s) at u/v points with current halos.
    """
    out = []
    for r, (ui, vi) in enumerate(zip(uint_tiles, vint_tiles)):
        fx = ui * operator.grid.dyg[r]
        fy = vi * operator.grid.dxg[r]
        div = (xp(fx) - fx) + (yp(fy) - fy)
        rhs = np.where(operator.wet[r], div / dt, 0.0)
        out.append(rhs)
        flops.add("elliptic_rhs", 8 * ui.size)
    return out


# -- repro/parallel/exchange.py -----------------------------------------------

def _build_plan(decomp: Decomposition, w: int) -> list:
    """Precompute the copy schedule of a width-``w`` exchange.

    Each entry is ``(dst_rank, dst_index, src_rank, src_index)`` with the
    index tuples ready for fancy-free slice assignment; executing the
    entries in order reproduces the two-pass fill exactly (x first over
    interior rows, then y over the full width including fresh x halos).
    """
    o = decomp.olx
    plan = []
    # Pass 1: x-direction (west/east), interior rows only.
    for r, t in enumerate(decomp.tiles):
        rows = slice(o, o + t.ny)
        wn = decomp.neighbor(r, "west")
        if wn is not None:
            nx_n = decomp.tiles[wn].nx
            plan.append((
                r, (Ellipsis, rows, slice(o - w, o)),
                wn, (Ellipsis, rows, slice(o + nx_n - w, o + nx_n)),
            ))
        en = decomp.neighbor(r, "east")
        if en is not None:
            plan.append((
                r, (Ellipsis, rows, slice(o + t.nx, o + t.nx + w)),
                en, (Ellipsis, rows, slice(o, o + w)),
            ))
    # Pass 2: y-direction (south/north), full x extent including x halos.
    for r, t in enumerate(decomp.tiles):
        cols = slice(o - w, o + t.nx + w)
        sn = decomp.neighbor(r, "south")
        if sn is not None:
            ny_n = decomp.tiles[sn].ny
            plan.append((
                r, (Ellipsis, slice(o - w, o), cols),
                sn, (Ellipsis, slice(o + ny_n - w, o + ny_n), cols),
            ))
        nn = decomp.neighbor(r, "north")
        if nn is not None:
            plan.append((
                r, (Ellipsis, slice(o + t.ny, o + t.ny + w), cols),
                nn, (Ellipsis, slice(o, o + w), cols),
            ))
    return plan


def reference_exchange_halos(
    decomp: Decomposition,
    fields: Sequence[np.ndarray],
    width: Optional[int] = None,
    wire_dtype=None,
) -> None:
    """Fill halo regions of every tile of one field, in place.

    ``fields[rank]`` is the tile-local array of rank ``rank`` (2-D
    ``(ny+2o, nx+2o)`` or 3-D ``(nz, ny+2o, nx+2o)``).  ``width`` can
    request a narrower exchange than the allocated halo (e.g. width-1
    exchanges in DS within width-3 halos).

    ``wire_dtype`` models a reduced-precision wire payload: every copied
    halo slab passes through that dtype before landing, exactly as if it
    had been packed at 4 bytes per element and upcast by the receiver
    (see :mod:`repro.precision`).  The pass-2 corner re-send of pass-1
    halo data is safe because the cast is idempotent (float32 values
    survive a float64 round trip bit-exactly).  ``None`` keeps the
    seed's cast-free copies.

    The copy schedule depends only on the decomposition and the width,
    so it is built once and cached on the decomposition — the CG solver
    calls this at every iteration, making the per-call slice arithmetic
    a measured hot path.
    """
    if len(fields) != decomp.n_ranks:
        raise ValueError(
            f"expected {decomp.n_ranks} tile arrays, got {len(fields)}"
        )
    o = decomp.olx
    w = o if width is None else width
    if w < 0:
        # A negative width would flip the halo slices into interior
        # ranges and silently overwrite interior cells.
        raise ValueError(f"exchange width must be >= 0, got {w}")
    if w > o:
        raise ValueError(f"exchange width {w} exceeds halo {o}")
    if w == 0:
        return
    cache = getattr(decomp, "_reference_exchange_plans", None)
    if cache is None:
        cache = decomp._reference_exchange_plans = {}
    plan = cache.get(w)
    if plan is None:
        plan = cache[w] = _build_plan(decomp, w)
    if wire_dtype is None:
        for dst, di, src, si in plan:
            fields[dst][di] = fields[src][si]
    else:
        wire_dtype = np.dtype(wire_dtype)
        for dst, di, src, si in plan:
            fields[dst][di] = fields[src][si].astype(wire_dtype)


# -- repro/gcm/grid.py ----------------------------------------------------------
# The per-tile grid build (``self`` is a Grid whose ``__init__`` has set
# params, decomp, c, nz, dtype, drf, z_top and global_depth; the step
# kernels' geometry is derived from what these two functions produce).

def _lat_of_row(self, j_global: np.ndarray) -> np.ndarray:
    """Latitude (deg) of cell-center row ``j_global`` (may be halo)."""
    return self.params.lat0 + (j_global + 0.5) * self.params.dlat


def _build_lateral_metrics(self) -> None:
    p = self.params
    a = self.c.radius
    dlam = np.deg2rad(p.dlon)
    dphi = np.deg2rad(p.dlat)
    o = self.decomp.olx

    self.dxc: list[np.ndarray] = []  # at u points
    self.dyc: list[np.ndarray] = []  # at v points
    self.dxg: list[np.ndarray] = []  # cell width at v-point latitude
    self.dyg: list[np.ndarray] = []  # meridional face length
    self.ra: list[np.ndarray] = []  # cell area
    self.fc: list[np.ndarray] = []  # Coriolis at centers
    self.lat_c: list[np.ndarray] = []  # latitude of centers, deg

    for t in self.decomp.tiles:
        jj = np.arange(-o, t.ny + o) + t.y0  # global row index per local row
        lat_c = _lat_of_row(self, jj)
        # clamp halo rows beyond the walls to the wall latitude so
        # metrics stay finite; masks make their values irrelevant
        lat_c = np.clip(lat_c, p.lat0 + 0.5 * p.dlat, p.lat1 - 0.5 * p.dlat)
        phi_c = np.deg2rad(lat_c)
        lat_s = np.clip(
            p.lat0 + (jj) * p.dlat, p.lat0, p.lat1
        )  # southern edges
        phi_s = np.deg2rad(lat_s)
        lat_n = np.clip(p.lat0 + (jj + 1) * p.dlat, p.lat0, p.lat1)
        phi_n = np.deg2rad(lat_n)

        shape = t.shape2d
        ones = np.ones(shape, dtype=self.dtype)

        def col(v):
            return np.broadcast_to(
                np.asarray(v, dtype=self.dtype)[:, None], shape
            ).copy()

        self.lat_c.append(col(lat_c))
        self.dxc.append(col(a * np.cos(phi_c) * dlam))
        self.dyc.append(ones * (a * dphi))
        self.dxg.append(col(a * np.cos(phi_s) * dlam))
        self.dyg.append(ones * (a * dphi))
        # Halo rows beyond the walls have phi_n == phi_s after
        # clamping; floor their (physically meaningless) area so
        # divisions stay finite — masks zero any contribution.
        area = a * a * dlam * (np.sin(phi_n) - np.sin(phi_s))
        area = np.maximum(area, a * a * dlam * dphi * 1e-6)
        self.ra.append(col(area))
        self.fc.append(col(self.c.coriolis(phi_c)))

    # areas/metrics must be identical in overlapping halos: they are
    # functions of the global row only, so no exchange is needed.


def _build_hfacs(self) -> None:
    p = self.params
    hx = HaloExchanger(self.decomp)
    # global hFacC
    depth = self.global_depth
    nz, ny, nx = self.nz, p.ny, p.nx
    z_top = self.z_top[:, None, None]
    drf = self.drf[:, None, None]
    # open fraction of layer k: how much of [z_bot, z_top] is above -depth
    open_frac = np.clip((z_top - (-depth[None, :, :])) / drf, 0.0, 1.0)
    # apply minimum partial cell: fractions below hfac_min/2 close,
    # others are floored at hfac_min (MITgcm convention)
    hf = np.where(open_frac < 0.5 * p.hfac_min, 0.0, np.maximum(open_frac, p.hfac_min))
    hf = np.where(open_frac >= 1.0, 1.0, hf)

    self.hfac_c = hx.scatter_global(hf)
    reference_exchange_halos(self.decomp, self.hfac_c)
    self.hfac_w: list[np.ndarray] = []
    self.hfac_s: list[np.ndarray] = []
    self.mask_c: list[np.ndarray] = []
    self.recip_hfac_c: list[np.ndarray] = []
    self.depth_c: list[np.ndarray] = []  # total open column depth at centers

    for r, t in enumerate(self.decomp.tiles):
        c = self.hfac_c[r]
        w = np.minimum(c, np.roll(c, 1, axis=-1))
        s = np.minimum(c, np.roll(c, 1, axis=-2))
        # wall: zero the southernmost physical face and everything
        # rolled across the tile's y edge is halo anyway
        o = self.decomp.olx
        if self.decomp.neighbor(r, "south") is None:
            s[:, : o + 1, :] = 0.0
        if self.decomp.neighbor(r, "north") is None:
            s[:, o + t.ny :, :] = 0.0
        self.hfac_w.append(w)
        self.hfac_s.append(s)
        self.mask_c.append((c > 0).astype(self.dtype))
        with np.errstate(divide="ignore"):
            rh = np.where(c > 0, 1.0 / np.where(c > 0, c, 1.0), 0.0)
        self.recip_hfac_c.append(rh)
        self.depth_c.append(np.sum(c * self.drf[:, None, None], axis=0))


def reference_grid_arrays(grid) -> dict:
    """Rebuild ``grid``'s metric and mask arrays the per-tile way;
    returns name -> list of per-tile arrays."""
    import types

    ref = types.SimpleNamespace(
        params=grid.params, decomp=grid.decomp, c=grid.c, nz=grid.nz, dtype=grid.dtype,
        drf=grid.drf, z_top=grid.z_top, global_depth=grid.global_depth,
    )
    _build_lateral_metrics(ref)
    _build_hfacs(ref)
    names = ("lat_c", "dxc", "dyc", "dxg", "dyg", "ra", "fc",
             "hfac_c", "hfac_w", "hfac_s", "mask_c", "depth_c")
    return {name: getattr(ref, name) for name in names}


# -- repro/parallel/runtime.py ------------------------------------------------

def reference_runtime_exchange(
    rt,
    fields: Sequence[Sequence[np.ndarray]] | Sequence[np.ndarray],
    width: Optional[int] = None,
    itemsize: int | Sequence[int] = 8,
    wire_dtypes=None,
) -> None:
    """Exchange halos of one or more fields and charge virtual time.

    ``fields`` is either one field (a list of per-rank tile arrays)
    or a list of such fields exchanged back-to-back (the PS phase
    exchanges five three-dimensional state fields per step).

    ``itemsize`` prices the wire: one int for every field, or one
    per field when a mixed-precision config narrows some payloads.
    ``wire_dtypes`` (one dtype-or-None per field, or a single value
    for all) applies the matching value-level quantization; None
    keeps a field's copies cast-free.
    """
    first = fields[0]
    multi = isinstance(first, (list, tuple))
    field_list = list(fields) if multi else [fields]  # type: ignore[list-item]
    if isinstance(itemsize, (int, np.integer)):
        itemsizes = [int(itemsize)] * len(field_list)
    else:
        itemsizes = [int(s) for s in itemsize]
        if len(itemsizes) != len(field_list):
            raise ValueError(
                f"need {len(field_list)} itemsizes, got {len(itemsizes)}"
            )
    if wire_dtypes is None or not isinstance(wire_dtypes, (list, tuple)):
        wire_list = [wire_dtypes] * len(field_list)
    else:
        wire_list = list(wire_dtypes)
        if len(wire_list) != len(field_list):
            raise ValueError(
                f"need {len(field_list)} wire dtypes, got {len(wire_list)}"
            )

    costs = np.zeros(rt.n_ranks)
    total_bytes = 0
    for f, isz, wdt in zip(field_list, itemsizes, wire_list):
        arr0 = f[0]
        nz = 1 if arr0.ndim == 2 else arr0.shape[0]
        reference_exchange_halos(rt.decomp, f, width, wire_dtype=wdt)
        for r in range(rt.n_ranks):
            edges = rt.decomp.edge_bytes(nz=nz, width=width, itemsize=isz, rank=r)
            if rt.degradation is not None:
                costs[r] += rt.backend.exchange_time(
                    edges, mixmode=rt.mixmode, n_ranks=rt.n_ranks,
                    node=int(rt.rank_owner[r]), now=float(rt.clocks[r]),
                )
            else:
                costs[r] += rt.backend.exchange_time(
                    edges, mixmode=rt.mixmode, n_ranks=rt.n_ranks
                )
            rt.stats[r].bytes_exchanged += sum(edges)
            total_bytes += sum(edges)

    # Neighbour synchronization: a rank cannot finish its exchange
    # before the tiles it trades halos with have arrived at it.
    before = rt.clocks.copy()
    synced = before.copy()
    for r in range(rt.n_ranks):
        for d in ("west", "east", "south", "north"):
            nbr = rt.decomp.neighbor(r, d)
            if nbr is not None and nbr != r:
                synced[r] = max(synced[r], before[nbr])
    t_start = float(before.max())
    rt.clocks = synced + costs
    for r, st in enumerate(rt.stats):
        st.sync_time += synced[r] - before[r]
        st.exchange_time += costs[r]
        st.n_exchanges += len(field_list)
    if rt.metrics is not None:
        rt.metrics.record(
            rt.current_phase, "exchange", float(costs.max()),
            nbytes=total_bytes, exchanges=len(field_list),
        )
        rt.metrics.record(
            rt.current_phase, "sync", float((synced - before).max())
        )
    rt._log(f"exchange:{len(field_list)}f", t_start)


# -- repro/gcm/timestepper.py -------------------------------------------------

def reference_step(model) -> StepStats:
    """Advance one time step (the Fig. 6 loop body)."""
    cfg = model.config
    st = model.state
    rt = model.runtime
    grid = full_tile_grid(model)
    stats = StepStats()

    t0 = rt.elapsed

    # ---- PS: the one exchange + sync point of the step -------------
    reference_runtime_exchange(
        rt,
        [list(st[name]) for name in ("u", "v", "theta", "tracer", "phy")],
        width=cfg.olx,
        itemsize=model._ps_itemsizes,
        wire_dtypes=model._ps_wire_dtypes,
    )
    t_after_exch = rt.elapsed

    ps_flops = np.zeros(model.decomp.n_ranks)
    u_star_t, v_star_t = [], []
    for r in range(model.decomp.n_ranks):
        fc = FlopCounter()
        u, v = st["u"][r], st["v"][r]
        theta, tracer = st["theta"][r], st["tracer"][r]
        b = cfg.eos.buoyancy(theta, tracer)
        fc.add("eos", cfg.eos.flops_per_cell * theta.size)
        gu, gv, gth, gtr, wflux, phy = compute_g_terms(
            r, grid, u, v, theta, tracer, b, cfg.dynamics, fc
        )
        if cfg.physics is not None:
            if hasattr(cfg.physics, "set_time"):
                cfg.physics.set_time(st.time)
            kwargs = _physics_kwargs(model, r)
            _apply_tendencies(cfg.physics)(
                cfg.physics, r, grid, u, v, theta, tracer, gu, gv, gth, gtr, fc,
                **kwargs,
            )
        st["gu"][r][...] = gu
        st["gv"][r][...] = gv
        st["gtheta"][r][...] = gth
        st["gtracer"][r][...] = gtr
        st["phy"][r][...] = phy
        eps = cfg.dynamics.ab2_eps
        if model.nh_operator is not None:
            # non-hydrostatic: w is prognostic (vertical momentum)
            ut, vt = transports(u, v, grid, r, fc)
            gw = compute_g_w(
                r, grid, st["w"][r], ut, vt, wflux, b,
                cfg.dynamics.ah, cfg.dynamics.az, fc,
            )
            gw_ab = ab2_extrapolate(gw, st["gw_prev"][r], eps, model._first_step, fc)
            st["gw"][r][...] = gw
            st["w"][r][...] = (st["w"][r] + cfg.dt * gw_ab) * grid.mask_c[r]
        else:
            st["w"][r][...] = w_from_flux(wflux, grid, r, fc)
        gu_ab = ab2_extrapolate(gu, st["gu_prev"][r], eps, model._first_step, fc)
        gv_ab = ab2_extrapolate(gv, st["gv_prev"][r], eps, model._first_step, fc)
        us, vs = provisional_velocity(
            r, grid, u, v, gu_ab, gv_ab, phy, cfg.dt, fc
        )
        u_star_t.append(us)
        v_star_t.append(vs)
        ps_flops[r] = fc.total
    rt.charge_compute(ps_flops, phase="ps")
    stats.flops_ps = int(ps_flops.sum())
    t_after_ps = rt.elapsed

    # ---- DS: elliptic surface-pressure solve ------------------------
    cg_res, ds_counter = _solve_surface_pressure(model, u_star_t, v_star_t)
    stats.ni = cg_res.iterations
    stats.cg_residual = cg_res.residual
    stats.cg_converged = cg_res.converged
    stats.flops_ds = ds_counter.total
    model._charge_ds(cg_res, ds_counter)
    t_after_ds = rt.elapsed

    # ---- correction + tracer step -----------------------------------
    eps = cfg.dynamics.ab2_eps
    for r in range(model.decomp.n_ranks):
        fc = FlopCounter()
        u_new, v_new = correct_velocity(
            r, grid, u_star_t[r], v_star_t[r], st["ps"][r], cfg.dt, fc
        )
        st["u"][r][...] = u_new
        st["v"][r][...] = v_new
        gth_ab = ab2_extrapolate(
            st["gtheta"][r], st["gtheta_prev"][r], eps, model._first_step, fc
        )
        gtr_ab = ab2_extrapolate(
            st["gtracer"][r], st["gtracer_prev"][r], eps, model._first_step, fc
        )
        mask = grid.mask_c[r]
        st["theta"][r][...] = (st["theta"][r] + cfg.dt * gth_ab) * mask
        st["tracer"][r][...] = (st["tracer"][r] + cfg.dt * gtr_ab) * mask
        fc.add("tracer_step", 4 * st["theta"][r].size)
        if cfg.physics is not None and hasattr(cfg.physics, "convective_adjustment"):
            stats.mixed_cells += _convective_adjustment(cfg.physics)(
                cfg.physics, st["theta"][r], grid, r, fc
            )
        ps_flops[r] = fc.total
    rt.charge_compute(ps_flops, phase="ps")
    stats.flops_ps += int(ps_flops.sum())

    # ---- non-hydrostatic 3-D projection (optional) -------------------
    if model.nh_operator is not None:
        t_before_nh = rt.elapsed
        _solve_nonhydrostatic(model, stats)
        stats.t_nh = rt.elapsed - t_before_nh

    stats.t_ps_exch = t_after_exch - t0
    stats.t_ps_compute = t_after_ps - t_after_exch
    stats.t_ds = t_after_ds - t_after_ps
    stats.t_step = rt.elapsed - t0

    st.swap_g_terms()
    model._first_step = False
    st.time += cfg.dt
    st.step_count += 1
    model.history.append(stats)
    if rt.metrics is not None:
        rt.metrics.end_step(ni=stats.ni, step=st.step_count)
    return stats


def full_tile_grid(model) -> Grid:
    """The ``Grid`` of ``model``'s whole tiles, halos included, built on
    first use from its configuration and kept on the model."""
    if "_full_tile_grid" not in model.__dict__:
        model._full_tile_grid = Grid(
            model.config.grid, model.decomp, depth=model.grid.global_depth, dtype=model.grid.dtype
        )
    return model._full_tile_grid


def _apply_tendencies(physics):
    return (
        _atm_apply_tendencies
        if isinstance(physics, AtmospherePhysics)
        else _ocn_apply_tendencies
    )


def _convective_adjustment(physics):
    return (
        _atm_convective_adjustment
        if isinstance(physics, AtmospherePhysics)
        else _ocn_convective_adjustment
    )


def _physics_kwargs(model, rank: int) -> dict:
    if model.is_atmosphere:
        sst = model.coupling.get("sst")
        return {"sst": sst[rank] if sst is not None else None}
    kwargs = {}
    for key, name in (("taux", "taux"), ("tauy", "tauy"), ("theta_surf", "theta_surf")):
        fieldlist = model.coupling.get(name)
        if fieldlist is not None:
            kwargs[key] = fieldlist[rank]
    return kwargs


def _solve_surface_pressure(model, u_star_t, v_star_t) -> tuple[CGResult, FlopCounter]:
    """Assemble RHS on the DS decomposition and run the PCG."""
    fc = FlopCounter()
    # depth-integrate on the PS tiles (3-D work, charged to PS ranks
    # via the returned counter split in _charge_ds)
    uints, vints = [], []
    for r in range(model.decomp.n_ranks):
        ui, vi = elliptic_ps_integrate(model, r, u_star_t[r], v_star_t[r], fc)
        uints.append(ui)
        vints.append(vi)
    # regrid PS -> DS through shared memory
    hx_ps, hx_ds = HaloExchanger(model.decomp), HaloExchanger(model.ds_decomp)
    g_ui = hx_ps.gather_global(uints)
    g_vi = hx_ps.gather_global(vints)
    ds_ui = hx_ds.scatter_global(g_ui)
    ds_vi = hx_ds.scatter_global(g_vi)
    reference_exchange_halos(model.ds_decomp, ds_ui, width=1, wire_dtype=model._solver_wire)
    reference_exchange_halos(model.ds_decomp, ds_vi, width=1, wire_dtype=model._solver_wire)
    rhs = rhs_from_transport(model.elliptic, ds_ui, ds_vi, model.config.dt, fc)
    operator = model.elliptic
    if model._cg_dtype == np.float32:
        operator = CastingOperator(model.elliptic, model._cg_dtype)
        rhs = [b.astype(model._cg_dtype) for b in rhs]
    gsum_hook, exch_hook = model._cg_hooks(model.ds_decomp)
    result = timestepper.preconditioned_cg(
        operator,
        rhs,
        fc,
        tol=model.config.cg_tol,
        maxiter=model.config.cg_maxiter,
        global_sum=gsum_hook,
        exchange=exch_hook,
    )
    # regrid solution DS -> PS and refresh halos (shared memory)
    g_ps = hx_ds.gather_global(result.x)
    ps_tiles = hx_ps.scatter_global(g_ps)
    reference_exchange_halos(model.decomp, ps_tiles)
    for r in range(model.decomp.n_ranks):
        model.state["ps"][r][...] = ps_tiles[r]
    return result, fc


def elliptic_ps_integrate(model, rank, u_star, v_star, fc):
    """Depth-integrate provisional velocities on a PS tile (m^2/s)."""
    grid = full_tile_grid(model)
    drf = grid.drf[:, None, None]
    ui = np.sum(u_star * grid.hfac_w[rank] * drf, axis=0)
    vi = np.sum(v_star * grid.hfac_s[rank] * drf, axis=0)
    fc.add("depth_integrate", 4 * u_star.size)
    return ui, vi


def _solve_nonhydrostatic(model, stats: StepStats) -> None:
    """3-D Poisson projection of (u, v, w) to non-divergence.

    Same communication structure as DS — one two-field halo-1
    exchange and two global sums per iteration — but over 3-D
    fields on the PS decomposition.
    """
    cfg = model.config
    st = model.state
    fc = FlopCounter()
    u, v, w = st["u"], st["v"], st["w"]
    prec = model.precision
    for name, f in (("u", u), ("v", v), ("w", w)):
        reference_exchange_halos(
            model.decomp, f, width=1, wire_dtype=prec.exchange_wire_dtype(name)
        )
    nh_operator = NonHydrostaticOperator(full_tile_grid(model), model.decomp)
    rhs = rhs_from_velocity(nh_operator, u, v, w, cfg.dt, fc)
    operator = nh_operator
    if model._cg_dtype == np.float32:
        operator = CastingOperator(nh_operator, model._cg_dtype)
        rhs = [b.astype(model._cg_dtype) for b in rhs]
    gsum_hook, exch_hook = model._cg_hooks(model.decomp)
    result = timestepper.preconditioned_cg(
        operator, rhs, fc, tol=cfg.cg_tol, maxiter=cfg.cg_maxiter,
        global_sum=gsum_hook, exchange=exch_hook,
    )
    for r in range(model.decomp.n_ranks):
        u2, v2, w2 = nh_correct(
            nh_operator, r, u[r], v[r], w[r], result.x[r], cfg.dt, fc
        )
        u[r][...] = u2
        v[r][...] = v2
        w[r][...] = w2
    stats.ni_nh = result.iterations
    stats.flops_nh = fc.total
    stats.nh_converged = result.converged

    # charge: per iteration one 2-field 3-D halo-1 exchange + 2 gsums
    rt = model.runtime
    be = rt.backend
    ni = max(result.iterations, 1)
    per_iter = fc.total / ni / model.decomp.n_ranks
    edges = model.decomp.edge_bytes(
        nz=model.grid.nz,
        width=1,
        itemsize=model._solver_itemsize,
        rank=model.decomp.critical_rank,
    )
    rt.sync()
    rt.charge_phase(
        compute=ni * per_iter / DS_FLOP_RATE,
        exchange=ni * 2 * be.exchange_time(edges, mixmode=rt.mixmode, n_ranks=rt.n_ranks),
        gsum=ni * 2 * be.gsum_time(rt.n_nodes, model._gsum_nbytes, smp=rt.mixmode),
        flops=fc.total,
        n_exchanges=2 * ni,
        n_gsums=2 * ni,
        phase="nh",
    )
