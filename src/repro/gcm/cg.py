"""Pre-conditioned conjugate-gradient solver for the DS phase.

The paper (Section 4): "A pre-conditioned conjugate-gradient iterative
solver is employed in this phase.  [...] the iterative solver requires
an exchange to be applied to two fields at every solver iteration [and]
two global sum operations are required at every solver iteration."

The modelled machine keeps that structure: the timestepper charges two
width-1 field exchanges and two global sums per iteration
(``Model._charge_solver``).  The host moves only what the arithmetic
reads: the vectors are contiguous tile interiors, and each iteration
fills the search direction's halo alone (nothing reads the residual's).
The global sums (``p.Ap``, ``r.z``) are each one reduction tree over
the ranks' partials.  Both go through injectable hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.exchange import exchange_halos


@dataclass
class CGResult:
    """Outcome of one elliptic solve."""

    x: Sequence[np.ndarray]  # per-rank solution tiles (one stacked array)
    iterations: int
    residual: float  # final |r|_2
    initial_residual: float
    converged: bool


def _default_gsum(partials: Sequence[float]) -> float:
    """Cost-free global sum: a balanced pairwise tree over the partials,
    zero-padded to a power of two (``n - 1`` additions for ``n`` ranks).

    Every level adds adjacent pairs, lower index first — the association
    in which :func:`repro.parallel.globalsum.butterfly_global_sum` builds
    each node's result — so the sum is bitwise the butterfly's over the
    padded partials, without computing it for every rank.
    """
    parts = list(map(float, partials)) or [0.0]
    parts += [0.0] * ((1 << (len(parts) - 1).bit_length()) - len(parts))
    step = 1
    while step < len(parts):
        for i in range(0, len(parts), 2 * step):
            parts[i] += parts[i + step]
        step *= 2
    return parts[0]


def preconditioned_cg(
    operator: EllipticOperator,
    rhs: List[np.ndarray],
    flops: FlopCounter,
    tol: float = 1e-10,
    maxiter: int = 200,
    global_sum: Optional[Callable[[Sequence[float]], float]] = None,
    exchange: Optional[Callable[[List[np.ndarray]], None]] = None,
    x0: Optional[List[np.ndarray]] = None,
) -> CGResult:
    """Solve ``A x = rhs`` with Jacobi-preconditioned CG.

    ``global_sum(partials) -> float`` and ``exchange([field])`` default
    to cost-free local reductions; the runtime injects charged versions.
    Convergence: relative 2-norm residual reduction below ``tol``.

    ``rhs`` and ``x0`` are ``n_ranks`` tiles with halos.  ``x``, ``r``,
    ``z`` and ``p`` live as contiguous interior stacks ``(n_ranks,
    [nz,] ny, nx)``.  Each iteration copies ``p`` into one full-tile
    buffer, ``exchange`` fills its innermost halo ring (one
    single-field ``(n_ranks,) + tile`` stack per call) and
    ``operator.apply_interior`` reads it and returns interiors;
    ``operator.precondition_interior`` maps interiors to interiors.
    Nothing reads the residual's halo, so it is never filled; the
    charge (``Model._charge_solver``) is still two field exchanges and
    two global sums per iteration.  The solution comes back as a
    full-tile stack: ``x0``'s tiles (or zeros) with the interiors
    replaced, refreshed by one final exchange.

    The ``cg_dot`` / ``cg_update`` flops are exact counts of the whole
    tiles, added once per solve.  Every arithmetic statement mirrors
    the per-tile loop elementwise (``beta * p + z`` is commuted into the
    in-place update, which IEEE addition permits), so results — ``x``
    with its halos — and flop counts are bit-identical to it: the loop
    lives on as the oracle ``tests/gcm/_reference_cg.py``.
    """
    decomp = operator.decomp
    gsum = global_sum or _default_gsum
    exch = exchange or (lambda fields: [exchange_halos(decomp, f, width=1) for f in fields])
    apply, precondition = operator.apply_interior, operator.precondition_interior
    interior = (Ellipsis,) + decomp.tiles[0].interior
    tiles = np.stack(rhs)
    x_tiles = np.zeros_like(tiles) if x0 is None else np.stack(x0)
    b, x = (np.ascontiguousarray(a[interior]) for a in (tiles, x_tiles))
    r = b.copy()
    if x0 is not None:
        exch([x_tiles])
        r -= apply(x_tiles, flops)
    z = precondition(r, flops)
    p = z.astype(b.dtype)
    prod = np.empty(b.shape, np.result_type(r, z))
    prod_by_rank = prod.reshape(len(b), -1)
    dot_flops = 2 * prod.size

    def dot(u, v):  # each rank's product summed as a per-tile np.sum visits it
        np.multiply(u, v, out=prod)
        return gsum(np.add.reduce(prod_by_rank, 1).tolist())

    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = dot(r, z)
    dots = 1
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        initial = math.sqrt(abs(dot(b, precondition(b, flops))))
        dots = 2
    if initial == 0.0 or math.sqrt(abs(rz)) <= tol * initial:
        flops.add("cg_dot", dots * dot_flops)
        return CGResult(x_tiles, 0, math.sqrt(abs(rz)) if initial else 0.0, initial, True)

    target = tol * initial
    resid = initial
    buf = np.zeros_like(tiles)  # p with halos: the one field the host exchanges
    buf_in = buf[interior]
    it = 0
    for it in range(1, maxiter + 1):
        buf_in[...] = p
        exch([buf])
        q = apply(buf, flops)
        pq = dot(p, q)  # global sum #1
        if pq == 0.0:
            xr_updates = p_updates = it - 1
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precondition(r, flops)
        rz_new = dot(r, z)  # global sum #2
        resid = math.sqrt(abs(rz_new))
        if resid <= target:
            xr_updates, p_updates = it, it - 1
            break
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    else:
        xr_updates = p_updates = it
    # one p.Ap per iteration begun, one r.z per x and r update; the
    # updates cost 4 flops per element of the whole tiles, the p update 2
    flops.add("cg_dot", (dots + it + xr_updates) * dot_flops)
    if xr_updates:
        flops.add("cg_update", (4 * xr_updates + 2 * p_updates) * tiles.size)
    x_tiles[interior] = x
    exch([x_tiles])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(x_tiles, it, resid, initial, resid <= target)
