"""Non-hydrostatic extension of the kernel (paper Section 3).

"The model is a versatile research tool that can be applied to a wide
variety of processes ranging from *non-hydrostatic rotating fluid
dynamics* [15, 22] to the large-scale general circulation" — and the
paper separates the pressure into hydrostatic, surface and
**non-hydrostatic** parts, dropping the last in the hydrostatic limit.

This module restores it:

* ``w`` becomes prognostic with its own tendency
  ``G_w = -adv(w) + b' + dissipation`` (vertical momentum, with the
  buoyancy anomaly relative to the hydrostatically-absorbed mean);
* after the surface-pressure correction, a **3-D Poisson equation**
  ``div grad q = div(v*) / dt`` is solved by the same preconditioned
  CG (now over 3-D tiles), and ``(u, v, w)`` are corrected with the 3-D
  gradient of ``q`` — making the full three-dimensional velocity field
  non-divergent, not just its depth integral.

Staggering: ``w[k]`` lives on the **top face** of layer ``k`` (the same
convention as the hydrostatic diagnostic ``w_from_flux``), with the
rigid lid pinning ``w[0] = 0`` and the floor face implicit.  This keeps
the correction *exactly* adjoint to the divergence, so the projected
field is non-divergent to solver tolerance.

The communication pattern of the solve is identical in *kind* to DS
(one halo-1 exchange call on the two-field stack of search direction and
residual, and two global sums, per iteration); only the field
dimensionality grows — which is exactly why the paper's
performance model "is valid for all these scenarios" (Section 6).
"""

from __future__ import annotations

import numpy as np

from repro.gcm import operators as op
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter


def compute_g_w(
    rank,
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
    # advection of w (treated with the tracer machinery; adequate for
    # the tendency's nonlinear part)
    g = op.advect_tracer(w, ut, vt, wflux, grid, rank, flops)
    g = g + op.laplacian_points(w, ah, grid.mask_c[rank], grid, rank)
    g = g + op.vertical_second_derivative(w, az, grid)
    flops.add("g_w", 6 * w.size)
    # face mask: open when both adjacent layers are open; lid closed
    return g * grid.geometry.open_face[rank]


class NonHydrostaticOperator:
    """3-D finite-volume ``div(grad .)`` over one decomposition.

    Lateral conductances per level are ``hFac * drF * dyG / dxC`` (and
    the y analogue); vertical conductances between layers k-1 and k are
    ``rA * hFacFace / drC``.  Land cells carry identity rows, so the
    matrix stays symmetric negative semi-definite and the shared CG
    solver applies unchanged.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.decomp = grid.decomp
        geo = grid.geometry
        drf = grid.drf[:, None, None]
        # coefficients stacked on the leading rank axis, like the grid's
        self.cw = grid.hfac_w * drf * geo.dy_dx
        self.cs = grid.hfac_s * drf * geo.dx_dy
        # vertical, index k = top face of layer k (k>=1)
        self.cv = np.zeros_like(self.cw)
        self.cv[:, 1:] = geo.ra * geo.open_face[:, 1:] / geo.drc
        self.wet = grid.mask_c
        d = -(self.cw + op.xp(self.cw) + self.cs + op.yp(self.cs))
        d[:, :-1] -= self.cv[:, 1:]
        d -= self.cv
        self.diag = np.where(self.wet, np.where(d != 0, d, -1.0), -1.0)

    def apply_stacked(self, q: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """A q on a ``(n_ranks, nz, ...)`` tile stack (halos current).

        ~16 flops/cell.  Elementwise identical, slice by slice, to the
        per-tile oracle ``nh_apply`` in ``tests/gcm/_reference_cg.py``;
        the vertical flux indexing moves from axis 0 to axis 1 to skip
        the rank axis.
        """
        fx = self.cw * (q - op.xm(q))
        fy = self.cs * (q - op.ym(q))
        aq = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        fz = np.zeros_like(q)
        fz[:, 1:] = self.cv[:, 1:] * (q[:, :-1] - q[:, 1:])
        aq = aq + fz
        aq[:, :-1] -= fz[:, 1:]
        aq = np.where(self.wet, aq, -q)
        flops.add("nh_apply", 16 * q.size)
        return aq

    def precondition_stacked(self, r: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """Jacobi on the tile stack: z = r / diag(A), 1 flop per cell."""
        flops.add("nh_precondition", r.size)
        return r / self.diag

    def rhs_from_velocity(self, u, v, w, dt: float, flops: FlopCounter) -> np.ndarray:
        """RHS = div3(v*) / dt in finite-volume form, on tile stacks (or
        sequences of tiles).  ~14 flops/cell.

        ``w[k]`` is the velocity through the top face of layer k (the
        rigid lid keeps ``w[0] = 0``; the floor face is implicit).
        """
        g, geo = self.grid, self.grid.geometry
        drf = g.drf[:, None, None]
        u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
        fx = u * g.hfac_w * drf * geo.dyg
        fy = v * g.hfac_s * drf * geo.dxg
        div = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        fz = w * geo.ra  # upward volume flux through top of k
        div = div + fz
        div[:, :-1] -= fz[:, 1:]
        flops.add("nh_rhs", 12 * u.size)
        return np.where(self.wet, div / dt, 0.0)

    def correct(
        self,
        rank,
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
        geo = self.grid.geometry
        gx = (q - op.xm(q)) / geo.dxc[rank]
        gy = (q - op.ym(q)) / geo.dyc[rank]
        gz = np.zeros_like(q)  # at top faces; lid face stays zero
        gz[..., 1:, :, :] = (q[..., :-1, :, :] - q[..., 1:, :, :]) / geo.drc
        u2 = (u - dt * gx) * geo.open_w[rank]
        v2 = (v - dt * gy) * geo.open_s[rank]
        w2 = (w - dt * gz) * geo.open_face[rank]
        flops.add("nh_correct", 10 * q.size)
        return u2, v2, w2


def divergence3(operator: NonHydrostaticOperator, u, v, w) -> float:
    """Max |div3| over interiors (m^3/s) — the non-hydrostatic residual."""
    divs = operator.rhs_from_velocity(u, v, w, 1.0, FlopCounter())
    return float(np.abs(operator.decomp.global_view(divs)).max())
