"""Pre-conditioned conjugate-gradient solver for the DS phase.

The paper (Section 4): "A pre-conditioned conjugate-gradient iterative
solver is employed in this phase.  [...] the iterative solver requires
an exchange to be applied to two fields at every solver iteration [and]
two global sum operations are required at every solver iteration."

This implementation preserves exactly that communication structure: per
iteration one width-1 exchange of two 2-D fields (the search direction
and the residual) and two scalar global sums (``p.Ap`` and ``r.z``),
routed through injectable hooks so the lockstep runtime can charge
virtual time while the numerics stay bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.exchange import exchange_halos
from repro.parallel.globalsum import butterfly_global_sum


@dataclass
class CGResult:
    """Outcome of one elliptic solve."""

    x: Sequence[np.ndarray]  # per-rank solution tiles (one stacked array)
    iterations: int
    residual: float  # final |r|_2
    initial_residual: float
    converged: bool


def _interior_dot_stacked(decomp, a: np.ndarray, b: np.ndarray, flops: FlopCounter) -> List[float]:
    """Per-rank partial dot products on a leading-rank-axis tile stack.

    Bit-identical to a per-tile ``np.sum(a[r] * b[r])`` over each
    interior: the product commutes with slicing, and the per-rank
    reduction runs over a contiguous buffer of the same shape and C
    order as the per-tile product array, so NumPy's pairwise summation
    visits elements in the same order.
    """
    sl = (Ellipsis,) + decomp.tiles[0].interior
    prod = np.ascontiguousarray((a * b)[sl])
    flops.add("cg_dot", 2 * prod.size)
    return prod.reshape(len(prod), -1).sum(axis=1).tolist()


def _default_gsum(partials: Sequence[float]) -> float:
    n = 1
    while n < len(partials):
        n *= 2
    padded = list(partials) + [0.0] * (n - len(partials))
    return butterfly_global_sum(padded)[0][0]


def preconditioned_cg(
    operator: EllipticOperator,
    rhs: List[np.ndarray],
    flops: FlopCounter,
    tol: float = 1e-10,
    maxiter: int = 200,
    global_sum: Optional[Callable[[Sequence[float]], float]] = None,
    exchange: Optional[Callable[[List[List[np.ndarray]]], None]] = None,
    x0: Optional[List[np.ndarray]] = None,
) -> CGResult:
    """Solve ``A x = rhs`` with Jacobi-preconditioned CG.

    ``global_sum(partials) -> float`` and ``exchange([fields])`` default
    to cost-free local reductions; the runtime injects charged versions.
    Convergence: relative 2-norm residual reduction below ``tol``.

    ``operator`` provides ``apply_stacked``/``precondition_stacked``
    (every in-tree operator does).  All vectors live in ``(n_ranks, ...)``
    stacks, so each iteration is a handful of NumPy calls instead of a
    Python loop per tile; the injected ``exchange`` receives those
    stacks themselves (``f[rank]`` is rank ``rank``'s tile), so halo
    fills mutate the storage in place, one copy per direction.
    Every arithmetic statement mirrors the per-tile loop elementwise
    (``beta * p + z`` is commuted into the in-place update, which IEEE
    addition permits), so results are bit-identical to it — the loop
    lives on as the oracle ``tests/gcm/_reference_cg.py``.
    """
    decomp = operator.decomp
    gsum = global_sum or _default_gsum
    exch = exchange or (lambda fields: [exchange_halos(decomp, f, width=1) for f in fields])
    r_st = np.stack(rhs)
    x_st = np.stack(x0) if x0 is not None else np.zeros_like(r_st)
    if x0 is not None:
        exch([x_st])
        r_st -= operator.apply_stacked(x_st, flops)
    z_st = operator.precondition_stacked(r_st, flops)
    p_st = z_st.copy()
    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = gsum(_interior_dot_stacked(decomp, r_st, z_st, flops))
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        rhs_st = np.stack(rhs)
        zb = operator.precondition_stacked(rhs_st, flops)
        initial = math.sqrt(abs(gsum(_interior_dot_stacked(decomp, rhs_st, zb, flops))))
    if initial == 0.0:
        return CGResult(x_st, 0, 0.0, 0.0, True)
    if math.sqrt(abs(rz)) <= tol * initial:
        return CGResult(x_st, 0, math.sqrt(abs(rz)), initial, True)

    resid = initial
    it = 0
    for it in range(1, maxiter + 1):
        # One width-1 exchange of two fields per iteration.
        exch([p_st, r_st])
        q_st = operator.apply_stacked(p_st, flops)
        pq = gsum(_interior_dot_stacked(decomp, p_st, q_st, flops))  # global sum #1
        if pq == 0.0:
            break
        alpha = rz / pq
        x_st += alpha * p_st
        r_st -= alpha * q_st
        flops.add("cg_update", 4 * x_st.size)
        z_st = operator.precondition_stacked(r_st, flops)
        rz_new = gsum(_interior_dot_stacked(decomp, r_st, z_st, flops))  # global sum #2
        resid = math.sqrt(abs(rz_new))
        if resid <= tol * initial:
            rz = rz_new
            break
        beta = rz_new / rz
        rz = rz_new
        p_st *= beta
        p_st += z_st
        flops.add("cg_update", 2 * p_st.size)

    exch([x_st])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(x_st, it, resid, initial, resid <= tol * initial)
