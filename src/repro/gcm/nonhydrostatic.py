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
(charged as a two-field halo-1 exchange and two global sums per
iteration; on the host, one halo-1 exchange of the search direction,
the one field the stencil reads beyond the interiors); only the field
dimensionality grows — which is exactly why the paper's performance
model "is valid for all these scenarios" (Section 6).
"""

from __future__ import annotations

import numpy as np

from repro.gcm import operators as op
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter
from repro.parallel.tiling import Decomposition


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

    The solve runs on ``decomp``'s tiles (the model state's); ``grid``
    holds the same tiles with a halo no wider — the step's window — and
    is where the coefficients, the right-hand side and the correction
    are computed.  Cells outside the window are land rows to the solver:
    the interiors only ever read the innermost ring.
    """

    def __init__(self, grid: Grid, decomp: Decomposition) -> None:
        self.grid = grid
        self.decomp = decomp
        #: ``grid``'s tiles inside ``decomp``'s
        self.window = decomp.window(grid.decomp.olx)
        geo = grid.geometry
        drf = grid.drf[:, None, None]
        # coefficients stacked on the leading rank axis, like the grid's
        cw = grid.hfac_w * drf * geo.dy_dx
        cs = grid.hfac_s * drf * geo.dx_dy
        # vertical, index k = top face of layer k (k>=1)
        cv = np.zeros_like(cw)
        cv[:, 1:] = geo.ra * geo.open_face[:, 1:] / geo.drc
        d = -(cw + op.xp(cw) + cs + op.yp(cs))
        d[:, :-1] -= cv[:, 1:]
        d -= cv
        diag = np.where(grid.mask_c, np.where(d != 0, d, -1.0), -1.0)
        self.cw, self.cs, self.cv = (self._embed(c, 0.0) for c in (cw, cs, cv))
        self.wet = self._embed(grid.mask_c, False)
        self.diag = self._embed(diag, -1.0)
        self._interior = (Ellipsis,) + decomp.tiles[0].interior
        self._cv, self._land, self._diag = (np.ascontiguousarray(a[self._interior])
                                            for a in (self.cv[:, 1:], ~self.wet, self.diag))

    def _embed(self, a: np.ndarray, fill) -> np.ndarray:
        """Window-shaped ``a`` placed in ``decomp``-shaped tiles."""
        out = np.full(a.shape[:-2] + self.decomp.tiles[0].shape2d, fill, a.dtype)
        out[self.window] = a
        return out

    def apply_interior(self, q: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """A q, as contiguous ``(n_ranks, nz, ny, nx)`` interiors, of a
        tile stack whose innermost halo ring is current; ~16 flops/cell
        of the whole tiles.  Elementwise identical, at every interior
        cell, to the per-tile oracle ``nh_apply`` in
        ``tests/gcm/_reference_cg.py`` (the vertical flux indexing moves
        from axis 0 to axis 1 to skip the rank axis).
        """
        qi = q[self._interior]
        aq = op.run_divergence(q, self.cw, self.cs, self.decomp.olx)[0][self._interior].copy()
        fz = np.zeros(aq.shape, q.dtype)
        fz[:, 1:] = self._cv * (qi[:, :-1] - qi[:, 1:])
        aq += fz
        aq[:, :-1] -= fz[:, 1:]
        np.negative(qi, out=aq, where=self._land)
        flops.add("nh_apply", 16 * q.size)
        return aq

    def precondition_interior(self, r: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """Jacobi on stacked interiors: z = r / diag(A), 1 flop per cell
        of the whole tiles."""
        flops.add("nh_precondition", self.diag.size)
        return r / self._diag

    def rhs_from_velocity(self, u, v, w, dt: float, flops: FlopCounter) -> np.ndarray:
        """RHS = div3(v*) / dt in finite-volume form, on tile stacks (or
        sequences of tiles) of ``decomp``, computed on the window (zero
        outside it).  ~14 flops/cell of the whole tiles.

        ``w[k]`` is the velocity through the top face of layer k (the
        rigid lid keeps ``w[0] = 0``; the floor face is implicit).
        """
        g, geo, win = self.grid, self.grid.geometry, self.window
        drf = g.drf[:, None, None]
        u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
        fx = u[win] * g.hfac_w * drf * geo.dyg
        fy = v[win] * g.hfac_s * drf * geo.dxg
        div = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        fz = w[win] * geo.ra  # upward volume flux through top of k
        div = div + fz
        div[:, :-1] -= fz[:, 1:]
        flops.add("nh_rhs", 12 * u.size)
        return self._embed(np.where(g.mask_c, div / dt, 0.0), 0.0)

    def correct(
        self,
        rank,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        q: np.ndarray,
        dt: float,
        flops: FlopCounter,
    ) -> None:
        """(u, v, w) -= dt grad q (masked), in place on the window of
        tiles ``rank`` of ``decomp``.

        The vertical gradient lands on the faces where w lives, exactly
        adjoint to :meth:`rhs_from_velocity`'s divergence, so the
        corrected field is non-divergent to solver tolerance.
        ~10 flops/cell of the whole tiles.
        """
        geo, win = self.grid.geometry, self.window
        flops.add("nh_correct", 10 * q.size)
        q = q[win].copy()
        gx = (q - op.xm(q)) / geo.dxc[rank]
        gy = (q - op.ym(q)) / geo.dyc[rank]
        gz = np.zeros_like(q)  # at top faces; lid face stays zero
        gz[..., 1:, :, :] = (q[..., :-1, :, :] - q[..., 1:, :, :]) / geo.drc
        u[win] = (u[win] - dt * gx) * geo.open_w[rank]
        v[win] = (v[win] - dt * gy) * geo.open_s[rank]
        w[win] = (w[win] - dt * gz) * geo.open_face[rank]


def divergence3(operator: NonHydrostaticOperator, u, v, w) -> float:
    """Max |div3| over interiors (m^3/s) — the non-hydrostatic residual."""
    divs = operator.rhs_from_velocity(u, v, w, 1.0, FlopCounter())
    return float(np.abs(operator.decomp.global_view(divs)).max())
