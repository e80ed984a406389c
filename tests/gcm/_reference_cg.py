"""The per-tile CG loop, kept as a differential oracle.

This is the body of ``repro.gcm.cg.preconditioned_cg`` as it stood
while the solver still carried two paths: one Python iteration per tile
per vector operation.  Every in-tree operator is stacked-capable, so
the library now always runs the stacked path;
``tests/backend/test_cg_fastpath.py`` checks it bitwise against this
loop.  It must never be imported from ``src/`` or ``benchmarks/``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gcm.cg import CGResult, _default_gsum
from repro.gcm.operators import FlopCounter
from repro.parallel.exchange import exchange_halos


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
        ax = operator.apply(x, flops)
        for i in range(len(r)):
            r[i] -= ax[i]
    z = operator.precondition(r, flops)
    p = [np.array(zi, copy=True) for zi in z]
    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = gsum(_interior_dot(decomp, r, z, flops))
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        zb = operator.precondition(rhs, flops)
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
        q = operator.apply(p, flops)
        pq = gsum(_interior_dot(decomp, p, q, flops))  # global sum #1
        if pq == 0.0:
            break
        alpha = rz / pq
        for i in range(len(x)):
            x[i] += alpha * p[i]
            r[i] -= alpha * q[i]
            flops.add("cg_update", 4 * x[i].size)
        z = operator.precondition(r, flops)
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
