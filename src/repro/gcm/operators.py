"""Finite-volume C-grid operators with analytic flop accounting.

All operators act on tile-local arrays (``(nz, J, I)`` or ``(J, I)``)
or on a batch of tiles stacked on a leading axis (``(B, nz, J, I)``):
every kernel indexes levels, rows and columns from the right, and its
``rank`` argument — one rank, or a ``slice`` of ranks matching the
batch — only selects the grid's factors.  Elementwise arithmetic, the
lateral shifts and the per-column sums are order-identical under the
batch axis, so a batch computes bit for bit what its tiles would alone.
Factors that depend on the grid alone come precomputed from
``grid.geometry`` (:class:`repro.gcm.grid.StepGeometry`).

Shifts are wrapped shifted views (slice-copy equivalents of
``np.roll``).  The shift wraps at the array edge, so each stencil
application invalidates one more ring of the halo; the deepest kernel
chain here is two applications, so interiors stay exact between
exchanges given two valid halo rings.  The paper's code overcomputes
into its full 3-wide halo (Section 4); the model step runs these
kernels on the interior plus two rings only
(:data:`repro.gcm.timestepper.STENCIL_RING`) and charges the full tile.

Flop accounting is *analytic* (operation count per cell, by inspection
of each expression), matching how the paper obtains ``Nps`` and ``Nds``
("determined by inspecting the model code", Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class FlopCounter:
    """Accumulates analytic flop counts keyed by kernel."""

    total: int = 0
    by_kernel: Dict[str, int] = field(default_factory=dict)

    def add(self, kernel: str, flops: float) -> None:
        """Accumulate ``flops`` against ``kernel``."""
        f = int(flops)
        self.total += f
        self.by_kernel[kernel] = self.by_kernel.get(kernel, 0) + f

    def merge(self, other: "FlopCounter") -> None:
        """Fold another counter's totals into this one."""
        self.total += other.total
        for k, v in other.by_kernel.items():
            self.by_kernel[k] = self.by_kernel.get(k, 0) + v


# -- shifted views ---------------------------------------------------------
#
# Semantically these are np.roll, but written as two copies into a
# preallocated output: same wrap-at-tile-edge behaviour, bit-identical
# values, and none of np.roll's index arithmetic — these shifts are the
# innermost operation of every stencil below and dominate the GCM's
# host-side cost.  The x shifts move the whole C-ordered buffer by one
# element in a single contiguous copy (a strided column-block copy
# costs half as much again) and then repair the wrapped column.


def xm(a: np.ndarray) -> np.ndarray:
    """Value at i-1 (wraps at tile edge; halo absorbs)."""
    out = np.empty(a.shape, a.dtype)
    out.reshape(-1)[1:] = a.reshape(-1)[:-1]
    out[..., 0] = a[..., -1]
    return out


def xp(a: np.ndarray) -> np.ndarray:
    """Value at i+1."""
    out = np.empty(a.shape, a.dtype)
    out.reshape(-1)[:-1] = a.reshape(-1)[1:]
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


def run_divergence(p: np.ndarray, cw: np.ndarray, cs: np.ndarray, olx: int):
    """``(div, run)``: the CG operators' lateral stencil ``(fx_e - fx_w)
    + (fy_n - fy_s)``, ``fx = cw (p - p_west)``, ``fy = cs (p - p_south)``,
    on a tile stack ``p`` of the coefficients' shape whose innermost
    halo ring is current, held by ``div`` (``p``'s shape) on the flat
    range ``run``: first interior row of the first tile to last interior
    row of the last.  In the flat stack the west and south neighbours
    are the offsets 1 and one row length, so the fluxes are one
    contiguous run each, with no wrapped shift built (cells between the
    interiors come out as garbage).  Each interior cell sees the operands
    and operation order of :func:`face_divergence` on the wrapped shifts:
    differences in ``p``'s dtype, products in the coefficients'.
    """
    x = p.shape[-1]
    lo, hi = olx * x, p.size - olx * x
    f, cw, cs = p.reshape(-1), cw.reshape(-1), cs.reshape(-1)
    fx = cw[lo : hi + 1] * (f[lo : hi + 1] - f[lo - 1 : hi])
    fy = cs[lo : hi + x] * (f[lo : hi + x] - f[lo - x : hi])
    div = np.empty(p.shape, fx.dtype)
    run = slice(lo, hi)
    np.subtract(fx[1:], fx[:-1], out=div.reshape(-1)[run])
    div.reshape(-1)[run] += fy[x:] - fy[:-x]
    return div, run


# -- transports -------------------------------------------------------------


def transports(u, v, grid, rank, flops: FlopCounter):
    """Volume transports through west and south faces (m^3/s).

    ``uTrans[k,j,i] = u * dyG * drF * hFacW``; similarly vTrans.
    3 flops/cell each.
    """
    geo = grid.geometry
    drf = grid.drf[:, None, None]
    ut = u * geo.dyg[rank] * drf * grid.hfac_w[rank]
    vt = v * geo.dxg[rank] * drf * grid.hfac_s[rank]
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
    wflux = -np.flip(np.cumsum(np.flip(hdiv, -3), axis=-3), -3)
    flops.add("w_continuity", 4 * ut.size)
    return wflux


def w_from_flux(wflux, grid, rank, flops: FlopCounter):
    """Vertical velocity at top faces: w = wFlux / rA (1 flop/cell)."""
    w = wflux / grid.geometry.ra[rank]
    flops.add("w_diag", wflux.size)
    return w


def _net_out(div, fz, wet, vol):
    """``-(div + net vertical outflow) / vol`` over open cells, where
    interface k carries ``fz[k]`` between layers k-1 and k: out through
    a layer's top minus in through its bottom (the floor carries nothing)."""
    net_vert = np.empty_like(fz)
    np.subtract(fz[..., :-1, :, :], fz[..., 1:, :, :], out=net_vert[..., :-1, :, :])
    net_vert[..., -1, :, :] = fz[..., -1, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # (out of place: a float32 tracer's fluxes are narrower than div)
        net = div + net_vert
        np.negative(net, out=net)
        return np.where(wet, net / vol, 0.0)


def _faces_below_lid(a):
    """An array like ``a`` for top-face fluxes: the lid (k = 0) carries
    none; the caller fills ``[..., 1:, :, :]``."""
    out = np.empty_like(a)
    out[..., 0, :, :] = 0.0
    return out


# -- tracer advection/diffusion ---------------------------------------------


def tracer_flux_factors(ut, vt, wflux, scheme: str = "centered"):
    """The tracer-independent part of :func:`advect_tracer`'s fluxes,
    shareable between tracers advected by the same transports: the
    half-transports (centered) or the upstream masks (upwind)."""
    wz = wflux[..., 1:, :, :]
    if scheme == "centered":
        return ut * 0.5, vt * 0.5, wz * 0.5
    if scheme == "upwind":
        return ut >= 0, vt >= 0, wz >= 0
    raise ValueError(f"unknown advection scheme {scheme!r}")


def advect_tracer(
    c, ut, vt, wflux, grid, rank, flops: FlopCounter, scheme: str = "centered",
    factors=None,
):
    """Flux-form advection tendency of tracer c.

    ``scheme="centered"`` — 2nd-order centered fluxes (the model's
    default; non-diffusive but dispersive).  ``scheme="upwind"`` —
    1st-order donor-cell fluxes (monotone: creates no new extrema, at
    the price of numerical diffusion).  ``factors`` takes a
    :func:`tracer_flux_factors` result computed once for several
    tracers.  Returns Gc_adv = -div(flux)/vol over open cells.
    ~16-20 flops/cell.
    """
    fu, fv, fw = factors or tracer_flux_factors(ut, vt, wflux, scheme)
    # vertical: interface k carries flux between layers k-1 and k; the
    # top face of layer 0 (surface) is a rigid lid, no advective flux
    fz = _faces_below_lid(c)
    upper, lower = c[..., :-1, :, :], c[..., 1:, :, :]
    if scheme == "centered":
        fx = fu * (c + xm(c))
        fy = fv * (c + ym(c))
        fz[..., 1:, :, :] = fw * (lower + upper)
    else:
        fx = np.where(fu, ut * xm(c), ut * c)
        fy = np.where(fv, vt * ym(c), vt * c)
        # upward flux (w > 0) carries the lower cell's value
        wz = wflux[..., 1:, :, :]
        fz[..., 1:, :, :] = np.where(fw, wz * lower, wz * upper)
    geo = grid.geometry
    g = _net_out(face_divergence(fx, fy), fz, geo.wet_c[rank], geo.vol_c[rank])
    flops.add("advect_tracer", 16 * c.size)
    return g


def laplacian_diffusion(c, kh, grid, rank, flops: FlopCounter):
    """Horizontal Laplacian diffusion tendency ``kh * div(grad c)``.

    Masked FV form: fluxes through closed faces vanish.  ~14 flops/cell.
    """
    geo = grid.geometry
    drf = grid.drf[:, None, None]
    fx = kh * geo.dy_dx[rank] * (c - xm(c)) * grid.hfac_w[rank] * drf
    fy = kh * geo.dx_dy[rank] * (c - ym(c)) * grid.hfac_s[rank] * drf
    div = face_divergence(fx, fy)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(geo.wet_c[rank], div / geo.vol_c[rank], 0.0)
    flops.add("laplacian_diffusion", 14 * c.size)
    return g


def vertical_diffusion(c, kz, grid, rank, flops: FlopCounter):
    """Vertical diffusion tendency ``d/dz (kz dc/dz)``.  ~8 flops/cell."""
    if c.shape[-3] == 1:
        return np.zeros_like(c)
    geo = grid.geometry
    drf = grid.drf[:, None, None]
    flux = _faces_below_lid(c)  # flux through top face of layer k (k>=1)
    flux[..., 1:, :, :] = kz * (c[..., :-1, :, :] - c[..., 1:, :, :]) / geo.drc
    flux[..., 1:, :, :] *= geo.open_face[rank][..., 1:, :, :]
    g = np.empty_like(c)  # (c's dtype, whatever the grid's)
    g[...] = flux / drf  # in through top
    g[..., :-1, :, :] -= flux[..., 1:, :, :] / drf[:-1]  # out through bottom
    flops.add("vertical_diffusion", 8 * c.size)
    return g


# -- momentum ----------------------------------------------------------------


def _vertical_momentum_flux(a, wflux, shift):
    """Flux of ``a`` through the interfaces of its own (u- or v-point)
    columns; ``shift`` averages wflux onto them."""
    fver = _faces_below_lid(a)
    wf = wflux[..., 1:, :, :]
    fver[..., 1:, :, :] = 0.5 * (0.5 * (wf + shift(wf))) * (a[..., 1:, :, :] + a[..., :-1, :, :])
    return fver


def advect_u(u, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of u (west-face points).

    Zonal fluxes at cell centers, meridional at SW corners, vertical at
    u-column interfaces.  ~24 flops/cell.
    """
    # zonal momentum flux at cell centers: mean transport times mean u
    fzon = 0.25 * (ut + xp(ut)) * (u + xp(u))
    # meridional flux at corners (i-1/2, j-1/2)
    fmer = 0.25 * (vt + xm(vt)) * (u + ym(u))
    net = (fzon - xm(fzon)) + (yp(fmer) - fmer)
    geo = grid.geometry
    g = _net_out(net, _vertical_momentum_flux(u, wflux, xm), geo.wet_u[rank], geo.vol_u[rank])
    flops.add("advect_u", 24 * u.size)
    return g


def advect_v(v, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of v (south-face points).  ~24 f/cell."""
    fzon = 0.25 * (ut + ym(ut)) * (v + xm(v))  # at corners
    fmer = 0.25 * (vt + yp(vt)) * (v + yp(v))  # at centers
    net = (xp(fzon) - fzon) + (fmer - ym(fmer))
    geo = grid.geometry
    g = _net_out(net, _vertical_momentum_flux(v, wflux, ym), geo.wet_v[rank], geo.vol_v[rank])
    flops.add("advect_v", 24 * v.size)
    return g


def corner_averages(u, v):
    """Energy-conserving 4-point averages ``(v_at_u, u_at_v)``, shared
    by :func:`coriolis` and :func:`metric_terms`."""
    vn, ue = yp(v), xp(u)
    v_at_u = 0.25 * (v + vn + xm(v) + xm(vn))
    u_at_v = 0.25 * (u + ue + ym(u) + ym(ue))
    return v_at_u, u_at_v


def coriolis(u, v, grid, rank, flops: FlopCounter, averages=None):
    """Coriolis tendencies (+f v at u-points, -f u at v-points).

    ``averages`` takes a :func:`corner_averages` result computed once
    for this and :func:`metric_terms`.  ~14 flops/cell.
    """
    geo = grid.geometry
    v_at_u, u_at_v = averages or corner_averages(u, v)
    gu = geo.f_u[rank] * v_at_u * geo.open_w[rank]
    gv = -geo.f_v[rank] * u_at_v * geo.open_s[rank]
    flops.add("coriolis", 14 * u.size)
    return gu, gv


def metric_terms(u, v, grid, rank, flops: FlopCounter, averages=None):
    """Spherical metric tendencies: +u v tan(phi)/a, -u^2 tan(phi)/a.

    ~10 flops/cell.
    """
    geo = grid.geometry
    a = grid.c.radius
    tan_lat = geo.tan_lat[rank]
    v_at_u, u_at_v = averages or corner_averages(u, v)
    gu = (u * v_at_u) * tan_lat / a * geo.open_w[rank]
    gv = -(u_at_v**2) * tan_lat / a * geo.open_s[rank]
    flops.add("metric", 10 * u.size)
    return gu, gv


def _viscosity(a, ah, az, mask, kernel, grid, rank, flops: FlopCounter, ah4: float):
    g = laplacian_points(a, ah, mask, grid, rank)
    if ah4 > 0.0:
        lap = laplacian_points(a, 1.0, mask, grid, rank)
        g -= laplacian_points(lap, ah4, mask, grid, rank)
        flops.add("biharmonic_" + kernel, 14 * a.size)
    g += vertical_second_derivative(a, az, grid)
    flops.add("viscosity_" + kernel, 20 * a.size)
    return g


def viscosity_u(u, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for u.  Biharmonic dissipation ``-ah4 lap(lap(u))`` is the standard
    scale-selective choice: it damps grid-scale noise while leaving the
    large-scale circulation nearly untouched.  ~20-34 flops/cell.
    """
    return _viscosity(u, ah, az, grid.geometry.open_w[rank], "u", grid, rank, flops, ah4)


def viscosity_v(v, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for v (see :func:`viscosity_u`).  ~20-34 flops/cell.
    """
    return _viscosity(v, ah, az, grid.geometry.open_s[rank], "v", grid, rank, flops, ah4)


def laplacian_points(a, coef, mask, grid, rank):
    """Simple 5-point Laplacian at the field's own points, masked by the
    bool open-point ``mask``."""
    geo = grid.geometry
    a2 = 2 * a
    lap = (xp(a) - a2 + xm(a)) / geo.dxc2[rank] + (yp(a) - a2 + ym(a)) / geo.dyc2[rank]
    return coef * lap * mask


def vertical_second_derivative(a, coef, grid):
    """coef * d2a/dz2 with one-sided top/bottom differences."""
    if a.shape[-3] == 1 or coef == 0.0:
        return np.zeros_like(a)
    drf2 = grid.drf[:, None, None] ** 2
    up, mid, down = a[..., :-2, :, :], a[..., 1:-1, :, :], a[..., 2:, :, :]
    out = np.empty_like(a)  # every level is assigned below
    out[..., 1:-1, :, :] = (down - 2 * mid + up) / drf2[1:-1]
    out[..., 0, :, :] = (a[..., 1, :, :] - a[..., 0, :, :]) / drf2[0]
    out[..., -1, :, :] = (a[..., -2, :, :] - a[..., -1, :, :]) / drf2[-1]
    return coef * out


# -- pressure ----------------------------------------------------------------


def hydrostatic_pressure(b, grid, flops: FlopCounter):
    """Hydrostatic pressure potential from buoyancy (eq. in Section 3.1).

    ``dphi/dz = b`` integrated downward from the surface (phi(0) = 0):
    phi[k] = phi[k-1] - 0.5*(b[k-1] + b[k]) * drC.  ~4 flops/cell.
    """
    drop = 0.5 * (b[..., :-1, :, :] + b[..., 1:, :, :]) * grid.geometry.drc
    phy = np.zeros_like(b)
    phy[..., 0, :, :] = -b[..., 0, :, :] * 0.5 * grid.drf[0]
    # level by level, not one cumsum: each level rounds to b's dtype,
    # which a mixed-precision state makes narrower than the increments
    for k in range(1, b.shape[-3]):
        np.subtract(phy[..., k - 1, :, :], drop[..., k - 1, :, :], out=phy[..., k, :, :])
    flops.add("hydrostatic", 4 * b.size)
    return phy


def pressure_gradient(p, grid, rank, flops: FlopCounter):
    """(-dp/dx at u-points, -dp/dy at v-points), masked.  ~6 flops/cell."""
    geo = grid.geometry
    gx = -(p - xm(p)) / geo.dxc[rank] * geo.open_w[rank]
    gy = -(p - ym(p)) / geo.dyc[rank] * geo.open_s[rank]
    flops.add("pressure_gradient", 6 * p.size)
    return gx, gy
