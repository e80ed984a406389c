"""The DS block: the 2-D elliptic surface-pressure equation (eq. 3).

In the hydrostatic limit the surface pressure satisfies

    div_h ( H grad_h p_s ) = div_h ( <U*> ) / dt

where ``<U*>`` is the depth integral of the provisional velocity.  With
``p_s`` found, the correction ``v^(n+1) = v* - dt grad p_s`` makes the
depth-integrated flow non-divergent (the continuity relation eq. 2).

The operator is assembled in finite-volume form: the face conductances
``Hw dyG / dxC`` and ``Hs dxG / dyC`` vanish through closed faces, so
irregular geometry (Fig. 4) is handled naturally and the matrix is
symmetric.  Land cells carry an identity row.
"""

from __future__ import annotations

import numpy as np

from repro.gcm import operators as op
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter


class EllipticOperator:
    """div(H grad .) on one decomposition, tile-parallel."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.decomp = grid.decomp
        drf = grid.drf[:, None, None]
        # Face conductances and open-column depths, stacked on the
        # leading rank axis like the grid's metrics.
        self.hw = np.sum(grid.hfac_w * drf, axis=-3)  # open depth of west faces
        self.hs = np.sum(grid.hfac_s * drf, axis=-3)
        self.cw = self.hw * grid.dyg / grid.dxc  # conductance Hw * dyG / dxC
        self.cs = self.hs * grid.dxg / grid.dyc
        self.wet = grid.depth_c > 0
        d = -(self.cw + op.xp(self.cw) + self.cs + op.yp(self.cs))
        # land rows are identity so CG ignores them
        self.diag = np.where(self.wet, np.where(d != 0, d, -1.0), -1.0)
        self.land = ~self.wet
        self._interior = (Ellipsis,) + self.decomp.tiles[0].interior
        self._diag = np.ascontiguousarray(self.diag[self._interior])

    def apply_interior(self, p: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """A p, as contiguous ``(n_ranks, ny, nx)`` interiors, of a tile
        stack whose innermost halo ring is current; ~10 flops per column
        of the whole tiles.  Land rows are the identity ``A = -I``.
        Elementwise identical, at every interior cell, to the per-tile
        oracle ``elliptic_apply`` in ``tests/gcm/_reference_cg.py``.
        """
        ap, run = op.run_divergence(p, self.cw, self.cs, self.decomp.olx)
        np.negative(p.reshape(-1)[run], out=ap.reshape(-1)[run], where=self.land.reshape(-1)[run])
        flops.add("elliptic_apply", 10 * p.size)
        return ap[self._interior].copy()

    def precondition_interior(self, r: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """Jacobi on stacked interiors: z = r / diag(A), 1 flop per
        column of the whole tiles."""
        flops.add("precondition", self.diag.size)
        return r / self._diag

    def rhs_from_transport(self, uint, vint, dt: float, flops: FlopCounter) -> np.ndarray:
        """RHS = div(<U*>)/dt in finite-volume form (~8 flops/column).

        ``uint``/``vint`` are depth-integrated provisional velocities
        (m^2/s) at u/v points with current halos, as tile stacks (or
        sequences of tiles).
        """
        flops.add("elliptic_rhs", 8 * np.size(uint))
        return np.where(self.wet, self._flux_divergence(uint, vint) / dt, 0.0)

    def divergence(self, uint, vint) -> np.ndarray:
        """Volume-flux divergence (m^3/s) of a depth-integrated flow."""
        return self._flux_divergence(uint, vint) * self.wet

    def _flux_divergence(self, uint, vint) -> np.ndarray:
        fx = np.asarray(uint) * self.grid.dyg
        fy = np.asarray(vint) * self.grid.dxg
        return (op.xp(fx) - fx) + (op.yp(fy) - fy)


def depth_integrate(
    grid: Grid, rank, u: np.ndarray, v: np.ndarray, flops: FlopCounter
) -> tuple[np.ndarray, np.ndarray]:
    """<u> = sum_k u hFacW drF (m^2/s) on tile(s) ``rank``; ~4 flops/cell."""
    drf = grid.drf[:, None, None]
    ui = np.sum(u * grid.hfac_w[rank] * drf, axis=-3)
    vi = np.sum(v * grid.hfac_s[rank] * drf, axis=-3)
    flops.add("depth_integrate", 4 * u.size)
    return ui, vi
