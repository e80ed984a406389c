"""The global sum primitive: butterfly all-reduce (paper Section 4.2, Fig. 8).

For an N-node sum with N a power of two the algorithm sends
``N log2 N`` messages over ``log2 N`` rounds, computing N reductions
concurrently so that after round ``i`` every node holds the partial sum
of the group of nodes whose identifiers differ only in the lowest
``i+1`` bits.

Non-power-of-two counts fold into the nearest power of two below
(``m = 2^floor(log2 N)``): in a *pre* round each extra rank ``e >= m``
sends its value to rank ``e - m``, which absorbs it before the
butterfly proper; a *post* round broadcasts the finished sum back to
the extras.  Latency grows by two rounds, and the combine order stays
canonical.

Determinism: each combine adds the lower-group partial to the
higher-group partial in canonical order, so every node finishes with a
**bitwise identical** result equal to the balanced-binary-tree sum over
the folded values — the property that makes parallel runs reproducible
across layouts *and* across the alternative all-reduce algorithms in
:mod:`repro.collectives`, which all reduce in this same canonical
association (see :func:`canonical_fold_reduce`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def largest_pow2_below(n: int) -> int:
    """Largest power of two <= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def canonical_fold_reduce(values: Sequence) -> "np.ndarray | float":
    """The canonical reduction every collective must reproduce bitwise.

    Fold extras onto the base power-of-two group (``base[i] = v[i] +
    v[i+m]``, lower index first), then sum the base by repeatedly adding
    adjacent pairs — the balanced binary tree the butterfly computes.
    Works elementwise on arrays; scalars in, float out.
    """
    n = len(values)
    scalar = np.ndim(values[0]) == 0
    parts = [np.asarray(v, dtype=np.float64) for v in values]
    m = largest_pow2_below(n)
    base = [parts[i] + parts[i + m] if i + m < n else parts[i] for i in range(m)]
    while len(base) > 1:
        base = [base[i] + base[i + 1] for i in range(0, len(base), 2)]
    return float(base[0]) if scalar else base[0]


def butterfly_global_sum(
    values: Sequence[float], record_rounds: bool = False
) -> tuple[list[float], list[list[float]]]:
    """All-reduce ``values`` by recursive doubling (any node count).

    Returns ``(results, trace)`` where ``results[r]`` is node r's final
    value (all bitwise identical) and, when ``record_rounds`` is set,
    ``trace[i][r]`` is node r's partial sum after butterfly round ``i``
    — exactly the quantities annotated in the paper's Fig. 8.  During
    the butterfly rounds of a folded (non-power-of-two) sum the extra
    ranks idle, so their trace entries carry their pre-fold values.
    """
    n = len(values)
    m = largest_pow2_below(n)
    partial = [float(v) for v in values]
    if m < n:  # fold-in: extras add onto their base partner, lower first
        for e in range(m, n):
            partial[e - m] = partial[e - m] + partial[e]
    trace: list[list[float]] = []
    for i in range(int(math.log2(m))):
        nxt = list(partial)
        for r in range(m):
            p = r ^ (1 << i)
            lo, hi = (r, p) if r < p else (p, r)
            nxt[r] = partial[lo] + partial[hi]
        partial = nxt
        if record_rounds:
            trace.append(list(partial))
    if m < n:  # fold-out: broadcast the finished sum back to the extras
        for e in range(m, n):
            partial[e] = partial[e - m]
    return partial, trace


def tree_reduce_broadcast(values: Sequence[float]) -> tuple[list[float], int]:
    """Baseline: binomial-tree reduce to node 0 then broadcast.

    Returns ``(results, rounds)``; latency is ``2 log2 N`` rounds (plus
    two fold rounds when N is not a power of two) versus the butterfly's
    ``log2 N`` — the ablation of Section 4.2's design choice ("minimizes
    latency at the expense of more messages").  The combine order
    matches :func:`canonical_fold_reduce` bitwise.
    """
    n = len(values)
    m = largest_pow2_below(n)
    partial = [float(v) for v in values]
    rounds = 0
    if m < n:
        for e in range(m, n):
            partial[e - m] = partial[e - m] + partial[e]
        rounds += 2  # fold-in + fold-out
    log_m = int(math.log2(m))
    for i in range(log_m):  # reduce
        step = 1 << i
        for r in range(0, m, step * 2):
            partial[r] = partial[r] + partial[r + step]
    result = partial[0]
    return [result] * n, rounds + 2 * log_m


class GlobalSummer:
    """Hierarchical (mix-mode) global sum over an SMP cluster.

    With ``cpus_per_node > 1``, consecutive ranks share an SMP: they
    first combine locally through shared memory, one master per SMP
    enters the system-wide butterfly, and the result is redistributed
    locally (Section 4.2).  Any node count is accepted; non-power-of-two
    counts fold per :func:`butterfly_global_sum`.  The butterfly leaves
    every node the :func:`canonical_fold_reduce` of the masters' values,
    so that is what the sum computes; every all-reduce schedule the
    collectives tuner can pick reduces in this canonical order, so the
    value never depends on the plan that prices it.
    """

    def __init__(self, n_ranks: int, cpus_per_node: int = 1) -> None:
        if n_ranks % max(cpus_per_node, 1):
            raise ValueError("n_ranks must be a multiple of cpus_per_node")
        self.n_ranks = n_ranks
        self.cpus_per_node = max(cpus_per_node, 1)
        self.n_nodes = n_ranks // self.cpus_per_node
        if self.n_nodes < 1:
            raise ValueError("at least one node required")

    def __call__(self, values: Sequence[float]) -> float:
        if len(values) != self.n_ranks:
            raise ValueError(f"expected {self.n_ranks} values, got {len(values)}")
        k = self.cpus_per_node
        if k == 1:
            return canonical_fold_reduce(values)
        # Local shared-memory combine, in rank order for determinism.
        local = [
            float(np.sum(np.asarray(values[node * k : (node + 1) * k], dtype=float)))
            for node in range(self.n_nodes)
        ]
        return canonical_fold_reduce(local)

    def message_count(self) -> int:
        """Fabric messages per sum: m log2 m plus 2 per folded extra."""
        n = self.n_nodes
        if n < 2:
            return 0
        m = largest_pow2_below(n)
        return m * int(math.log2(m)) + 2 * (n - m)
