"""Pre-conditioned conjugate-gradient solver for the DS phase.

The paper (Section 4): "A pre-conditioned conjugate-gradient iterative
solver is employed in this phase.  [...] the iterative solver requires
an exchange to be applied to two fields at every solver iteration [and]
two global sum operations are required at every solver iteration."

This implementation keeps exactly that communication structure, and
spells it literally: the search direction and the residual live in one
two-field stack, so each iteration makes one width-1 exchange call that
fills the halos of both, and two scalar global sums (``p.Ap`` and
``r.z``), each one reduction tree over the ranks' partials.  Both go
through injectable hooks so the lockstep runtime can charge virtual
time while the numerics stay bit-reproducible.
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
    exchange: Optional[Callable[[List[List[np.ndarray]]], None]] = None,
    x0: Optional[List[np.ndarray]] = None,
) -> CGResult:
    """Solve ``A x = rhs`` with Jacobi-preconditioned CG.

    ``global_sum(partials) -> float`` and ``exchange([fields])`` default
    to cost-free local reductions; the runtime injects charged versions.
    Convergence: relative 2-norm residual reduction below ``tol``.

    ``operator`` provides ``apply_stacked``/``precondition_stacked``
    (every in-tree operator does).  All vectors live in ``(n_ranks, ...)``
    stacks, so each iteration is a handful of NumPy calls.  ``p`` and
    ``r`` are the two halves of one ``(2, n_ranks, ...)`` buffer (so they
    share the right-hand side's dtype); the injected ``exchange``
    receives its ``(n_ranks, 2, ...)`` view each iteration — ``f[rank]``
    is rank ``rank``'s pair of tiles — and the one ``x`` stack for the
    final refresh, so halo fills mutate the storage in place, one copy
    per direction for both fields.  The ``cg_dot`` / ``cg_update`` flops
    are exact counts added once per solve.  Every arithmetic statement
    mirrors the per-tile loop elementwise (``beta * p + z`` is commuted
    into the in-place update, which IEEE addition permits), so results
    and flop counts are bit-identical to it — the loop lives on as the
    oracle ``tests/gcm/_reference_cg.py``.
    """
    decomp = operator.decomp
    gsum = global_sum or _default_gsum
    exch = exchange or (lambda fields: [exchange_halos(decomp, f, width=1) for f in fields])
    apply, precondition = operator.apply_stacked, operator.precondition_stacked
    b = np.stack(rhs)
    x = np.stack(x0) if x0 is not None else np.zeros_like(b)
    pr = np.empty((2,) + b.shape, b.dtype)
    p, r = pr
    pr_by_rank = np.moveaxis(pr, 0, 1)
    r[...] = b
    if x0 is not None:
        exch([x])
        r -= apply(x, flops)
    z = precondition(r, flops)
    p[...] = z
    interior = (Ellipsis,) + decomp.tiles[0].interior
    p_in, r_in = p[interior], r[interior]
    prod = np.empty(r_in.shape, np.result_type(r, z))
    prod_by_rank = prod.reshape(len(b), -1)
    dot_flops = 2 * prod.size

    def dot(u_in, v):
        # global sum of the per-rank interior dots of u (``u_in``, its
        # interior view) and v; each rank's contiguous product is summed
        # in the order a per-tile np.sum visits it
        np.multiply(u_in, v[interior], out=prod)
        return gsum(np.add.reduce(prod_by_rank, 1).tolist())

    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = dot(r_in, z)
    dots = 1
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        initial = math.sqrt(abs(dot(b[interior], precondition(b, flops))))
        dots = 2
    if initial == 0.0 or math.sqrt(abs(rz)) <= tol * initial:
        flops.add("cg_dot", dots * dot_flops)
        return CGResult(x, 0, math.sqrt(abs(rz)) if initial else 0.0, initial, True)

    target = tol * initial
    resid = initial
    it = 0
    for it in range(1, maxiter + 1):
        exch([pr_by_rank])  # one width-1 exchange of two fields
        q = apply(p, flops)
        pq = dot(p_in, q)  # global sum #1
        if pq == 0.0:
            xr_updates = p_updates = it - 1
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precondition(r, flops)
        rz_new = dot(r_in, z)  # global sum #2
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
    # updates cost 4 flops per element, the p update 2
    flops.add("cg_dot", (dots + it + xr_updates) * dot_flops)
    if xr_updates:
        flops.add("cg_update", (4 * xr_updates + 2 * p_updates) * b.size)
    exch([x])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(x, it, resid, initial, resid <= target)
