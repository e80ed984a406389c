"""The per-tile CG loop, kept as a differential oracle.

This is the body of ``repro.gcm.cg.preconditioned_cg`` as it stood
while the solver still carried two paths: one Python iteration per tile
per vector operation.  Every in-tree operator is stacked-capable, so
the library now always runs the stacked path;
``tests/backend/test_cg_fastpath.py`` checks it bitwise against this
loop.  It must never be imported from ``src/`` or ``benchmarks/``.

The oracle owns everything the loop ran, so it does not check the
library against itself:

* its global sum is the library's old ``_default_gsum`` (rank 0's
  result of a full butterfly over the zero-padded partials);
* the per-tile ``apply`` / ``precondition`` methods the elliptic, the
  non-hydrostatic and the casting operators used to carry live here as
  functions of the operator (:func:`tile_apply`, :func:`tile_precondition`);
  operators a test defines may still bring their own ``apply`` /
  ``precondition`` methods.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gcm import operators as op
from repro.gcm.cg import CGResult
from repro.gcm.nonhydrostatic import NonHydrostaticOperator
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.exchange import exchange_halos
from repro.parallel.globalsum import butterfly_global_sum
from repro.precision.codec import CastingOperator


def _default_gsum(partials: Sequence[float]) -> float:
    n = 1
    while n < len(partials):
        n *= 2
    padded = list(partials) + [0.0] * (n - len(partials))
    return butterfly_global_sum(padded)[0][0]


def elliptic_apply(self: EllipticOperator, p_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """A p = div(H grad p) per tile (halos of p must be current).

    ~10 flops per column.
    """
    out = []
    for r, p in enumerate(p_tiles):
        fx = self.cw[r] * (p - op.xm(p))
        fy = self.cs[r] * (p - op.ym(p))
        ap = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        ap = np.where(self.wet[r], ap, -p)  # identity on land (A = -I)
        out.append(ap)
        flops.add("elliptic_apply", 10 * p.size)
    return out


def elliptic_precondition(self: EllipticOperator, r_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """Jacobi: z = r / diag(A).  1 flop per column."""
    out = []
    for r, arr in enumerate(r_tiles):
        out.append(arr / self.diag[r])
        flops.add("precondition", arr.size)
    return out


def nh_apply(self: NonHydrostaticOperator, q_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """A q per tile (halos current).  ~16 flops/cell."""
    out = []
    for r, q in enumerate(q_tiles):
        fx = self.cw[r] * (q - op.xm(q))
        fy = self.cs[r] * (q - op.ym(q))
        aq = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        fz = np.zeros_like(q)
        fz[1:] = self.cv[r][1:] * (q[:-1] - q[1:])  # flux downward through top face
        aq = aq + fz
        aq[:-1] -= fz[1:]
        aq = np.where(self.wet[r], aq, -q)
        out.append(aq)
        flops.add("nh_apply", 16 * q.size)
    return out


def nh_precondition(self: NonHydrostaticOperator, r_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """Jacobi: z = r / diag(A).  1 flop per cell."""
    out = []
    for r, arr in enumerate(r_tiles):
        out.append(arr / self.diag[r])
        flops.add("nh_precondition", arr.size)
    return out


def casting_apply(self: CastingOperator, x, flops):
    """A x, cast back to the working dtype."""
    return [a.astype(self.dtype, copy=False) for a in tile_apply(self._operator, x, flops)]


def casting_precondition(self: CastingOperator, r, flops):
    """M^-1 r, cast back to the working dtype."""
    return [a.astype(self.dtype, copy=False) for a in tile_precondition(self._operator, r, flops)]


#: (operator class, per-tile apply, per-tile precondition)
_TILE_METHODS = (
    (CastingOperator, casting_apply, casting_precondition),
    (NonHydrostaticOperator, nh_apply, nh_precondition),
    (EllipticOperator, elliptic_apply, elliptic_precondition),
)


def tile_apply(operator, tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """A x per tile for an in-tree operator, or the operator's own ``apply``."""
    for cls, apply, _ in _TILE_METHODS:
        if isinstance(operator, cls):
            return apply(operator, tiles, flops)
    return operator.apply(tiles, flops)


def tile_precondition(operator, tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
    """M^-1 r per tile for an in-tree operator, or the operator's own ``precondition``."""
    for cls, _, precondition in _TILE_METHODS:
        if isinstance(operator, cls):
            return precondition(operator, tiles, flops)
    return operator.precondition(tiles, flops)


def _interior_dot(decomp, a_tiles, b_tiles, flops: FlopCounter) -> List[float]:
    """Per-rank partial dot products over tile interiors.

    Works for 2-D tiles (the surface-pressure solve) and 3-D tiles (the
    non-hydrostatic solve): the interior slices select the last two
    (lateral) axes.
    """
    out = []
    for r, t in enumerate(decomp.tiles):
        sl = (Ellipsis,) + t.interior
        out.append(float(np.sum(a_tiles[r][sl] * b_tiles[r][sl])))
        flops.add("cg_dot", 2 * a_tiles[r][sl].size)
    return out


def reference_cg(
    operator,
    rhs: List[np.ndarray],
    flops: FlopCounter,
    tol: float = 1e-10,
    maxiter: int = 200,
    global_sum: Optional[Callable[[Sequence[float]], float]] = None,
    exchange: Optional[Callable[[List[List[np.ndarray]]], None]] = None,
    x0: Optional[List[np.ndarray]] = None,
) -> CGResult:
    """``preconditioned_cg`` with the signature and defaults it has in
    the library, running the per-tile loop."""
    decomp = operator.decomp
    gsum = global_sum or _default_gsum
    exch = exchange or (lambda fields: [exchange_halos(decomp, f, width=1) for f in fields])

    x = [np.array(t, copy=True) for t in x0] if x0 is not None else [np.zeros_like(b) for b in rhs]
    r = [np.array(b, copy=True) for b in rhs]
    if x0 is not None:
        exch([x])
        ax = tile_apply(operator, x, flops)
        for i in range(len(r)):
            r[i] -= ax[i]
    z = tile_precondition(operator, r, flops)
    p = [np.array(zi, copy=True) for zi in z]
    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = gsum(_interior_dot(decomp, r, z, flops))
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        zb = tile_precondition(operator, rhs, flops)
        initial = math.sqrt(abs(gsum(_interior_dot(decomp, rhs, zb, flops))))
    if initial == 0.0:
        return CGResult(x, 0, 0.0, 0.0, True)
    if math.sqrt(abs(rz)) <= tol * initial:
        return CGResult(x, 0, math.sqrt(abs(rz)), initial, True)

    resid = initial
    it = 0
    for it in range(1, maxiter + 1):
        # One width-1 exchange of two 2-D fields per iteration.
        exch([p, r])
        q = tile_apply(operator, p, flops)
        pq = gsum(_interior_dot(decomp, p, q, flops))  # global sum #1
        if pq == 0.0:
            break
        alpha = rz / pq
        for i in range(len(x)):
            x[i] += alpha * p[i]
            r[i] -= alpha * q[i]
            flops.add("cg_update", 4 * x[i].size)
        z = tile_precondition(operator, r, flops)
        rz_new = gsum(_interior_dot(decomp, r, z, flops))  # global sum #2
        resid = math.sqrt(abs(rz_new))
        if resid <= tol * initial:
            rz = rz_new
            break
        beta = rz_new / rz
        rz = rz_new
        for i in range(len(p)):
            p[i] = z[i] + beta * p[i]
            flops.add("cg_update", 2 * p[i].size)

    exch([x])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(x, it, resid, initial, resid <= tol * initial)
