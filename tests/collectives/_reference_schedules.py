"""The per-``Send`` schedule builders, kept verbatim as the differential
oracle (ISSUE 24): every algorithm written down as Python ``Send``
objects with sorted item tuples, possession simulated round by round,
plus the duplicated "elided" loops the large-n builds used.  The library
builds the same schedules as wire arrays from closed forms
(:mod:`repro.collectives.schedules`); ``test_schedule_equivalence.py``
holds the two equal, column for column and ``Send`` for ``Send``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.collectives.schedules import (
    ITEMS_EXACT_MAX_N,
    Item,
    Schedule,
    Send,
    _require_pow2,
    chunk_nbytes,
    chunk_range_nbytes,
)
from repro.network.overheads import MIN_WIRE_BYTES
from repro.parallel.globalsum import largest_pow2_below

# ---------------------------------------------------------------------------
# builders — all-reduce family
# ---------------------------------------------------------------------------


def _fold_in(n: int, nbytes: int, owned: List[set]) -> List[Send]:
    """Pre-round: extras ship their contributions onto the base group."""
    m = largest_pow2_below(n)
    rnd = [Send(e, e - m, nbytes, tuple(sorted(owned[e]))) for e in range(m, n)]
    for e in range(m, n):
        owned[e - m] |= owned[e]
    return rnd


def allreduce_butterfly(n: int, nbytes: int) -> Schedule:
    """Recursive doubling; folds non-power-of-two counts (Fig. 8)."""
    m = largest_pow2_below(n)
    rounds: List[List[Send]] = []
    if n > ITEMS_EXACT_MAX_N:
        # item bookkeeping is O(n^2 log n) — elide it at large n, as the
        # ring builder does, so the schedule stays O(n log n)
        if m < n:
            rounds.append([Send(e, e - m, nbytes, ()) for e in range(m, n)])
        for i in range(int(math.log2(m))):
            rounds.append(
                [Send(r, r ^ (1 << i), nbytes, ()) for r in range(m)]
            )
        if m < n:
            rounds.append(
                [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
            )
        return Schedule(
            "allreduce", "butterfly", n, nbytes, 1, _freeze(rounds),
            items_elided=True,
        )
    owned = [{("contrib", r, 0)} for r in range(n)]
    if m < n:
        rounds.append(_fold_in(n, nbytes, owned))
    for i in range(int(math.log2(m))):
        snap = [set(o) for o in owned]
        rounds.append(
            [Send(r, r ^ (1 << i), nbytes, tuple(sorted(snap[r]))) for r in range(m)]
        )
        for r in range(m):
            owned[r] |= snap[r ^ (1 << i)]
    if m < n:
        rounds.append(
            [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
        )
    return Schedule("allreduce", "butterfly", n, nbytes, 1, _freeze(rounds))


def allreduce_tree(n: int, nbytes: int) -> Schedule:
    """Binomial-tree reduce to rank 0 then broadcast; 2 log2 m rounds."""
    owned = [{("contrib", r, 0)} for r in range(n)]
    m = largest_pow2_below(n)
    rounds: List[List[Send]] = []
    if m < n:
        rounds.append(_fold_in(n, nbytes, owned))
    log_m = int(math.log2(m))
    for i in range(log_m):
        rnd = []
        for r in range(0, m, 1 << (i + 1)):
            src = r + (1 << i)
            rnd.append(Send(src, r, nbytes, tuple(sorted(owned[src]))))
            owned[r] |= owned[src]
        rounds.append(rnd)
    for i in reversed(range(log_m)):
        rnd = []
        for r in range(0, m, 1 << (i + 1)):
            rnd.append(Send(r, r + (1 << i), nbytes, (("reduced", 0),)))
        rounds.append(rnd)
    if m < n:
        rounds.append(
            [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
        )
    return Schedule("allreduce", "tree", n, nbytes, 1, _freeze(rounds))


def _ring_reduce_scatter_rounds(n: int, nbytes: int) -> List[List[Send]]:
    """n-1 rounds leaving rank r with the full contribution set of chunk
    r; each hop ships one (partially reduced) chunk to rank r+1.

    Ring possession has a closed form — in round k rank r forwards
    chunk ``(r-k-1) % n`` carrying the k+1 contributions
    ``{(r-k) % n, ..., r}`` it has accumulated — so the items are
    written down directly; simulating possession per round would make
    large-ring builds (n=256 in the PFPP sweep) quartic in n.
    :meth:`Schedule.validate` independently checks the closed form."""
    elide = n > ITEMS_EXACT_MAX_N
    rounds = []
    for k in range(n - 1):
        rnd = []
        for r in range(n):
            c = (r - k - 1) % n
            items = () if elide else tuple(
                ("contrib", o, c)
                for o in sorted((r - j) % n for j in range(k + 1))
            )
            rnd.append(Send(r, (r + 1) % n, chunk_nbytes(nbytes, n, c), items))
        rounds.append(rnd)
    return rounds


def allreduce_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter + ring allgather; bandwidth-optimal
    (2(n-1) rounds, ~2*nbytes total per rank)."""
    if n < 2:
        return Schedule("allreduce", "ring", n, nbytes, 1, ())
    rounds = _ring_reduce_scatter_rounds(n, nbytes)
    for k in range(n - 1):  # allgather of the reduced chunks
        rnd = []
        for r in range(n):
            c = (r - k) % n
            rnd.append(
                Send(r, (r + 1) % n, chunk_nbytes(nbytes, n, c), (("reduced", c),))
            )
        rounds.append(rnd)
    return Schedule(
        "allreduce", "ring", n, nbytes, n, _freeze(rounds),
        items_elided=n > ITEMS_EXACT_MAX_N,
    )


def _halving_rounds(
    n: int, nbytes: int, owned: List[set], elide: bool = False
) -> List[List[Send]]:
    """Recursive halving: log2 n rounds ending with rank r holding the
    full contribution set of chunk r.  Power-of-two only.  ``elide``
    skips the O(n^2 log n) item bookkeeping (large-n timing-only
    schedules), pricing each send with the closed-form range sum."""
    log_n = _require_pow2(n, "recursive halving")
    lo = [0] * n
    hi = [n] * n
    rounds = []
    for _ in range(log_n):
        rnd = []
        gains: List[Tuple[int, Tuple[Item, ...]]] = []
        for r in range(n):
            d = (hi[r] - lo[r]) // 2
            mid = lo[r] + d
            partner = r ^ d
            sent = range(mid, hi[r]) if r < mid else range(lo[r], mid)
            size = chunk_range_nbytes(nbytes, n, sent.start, sent.stop)
            if elide:
                items: Tuple[Item, ...] = ()
            else:
                items = tuple(
                    sorted(i for i in owned[r] if i[0] == "contrib" and i[2] in sent)
                )
                gains.append((partner, items))
            rnd.append(Send(r, partner, size, items))
            if r < mid:
                hi[r] = mid
            else:
                lo[r] = mid
        for dst, items in gains:
            owned[dst].update(items)
        rounds.append(rnd)
    return rounds


def allreduce_reduce_scatter_allgather(n: int, nbytes: int) -> Schedule:
    """Recursive halving + recursive doubling (Rabenseifner); needs 2^k."""
    _require_pow2(n, "reduce-scatter+allgather")
    if n < 2:
        return Schedule("allreduce", "reduce_scatter_allgather", n, nbytes, 1, ())
    elide = n > ITEMS_EXACT_MAX_N
    if elide:
        owned: List[set] = []
        rounds = _halving_rounds(n, nbytes, owned, elide=True)
        d = 1
        while d < n:  # recursive-doubling allgather, closed-form sizes:
            # after t rounds rank r holds the aligned chunk block
            # [r & ~(d-1), (r & ~(d-1)) + d)
            rnd = []
            for r in range(n):
                base = r & ~(d - 1)
                size = chunk_range_nbytes(nbytes, n, base, base + d)
                rnd.append(Send(r, r ^ d, size, ()))
            rounds.append(rnd)
            d *= 2
        return Schedule(
            "allreduce", "reduce_scatter_allgather", n, nbytes, n,
            _freeze(rounds), items_elided=True,
        )
    owned = [{("contrib", r, c) for c in range(n)} for r in range(n)]
    rounds = _halving_rounds(n, nbytes, owned)
    held = [{r} for r in range(n)]  # reduced chunks per rank
    d = 1
    while d < n:  # recursive-doubling allgather of the reduced chunks
        rnd = []
        snap = [set(h) for h in held]
        for r in range(n):
            partner = r ^ d
            items = tuple(("reduced", c) for c in sorted(snap[r]))
            size = sum(chunk_nbytes(nbytes, n, c) for c in snap[r])
            rnd.append(Send(r, partner, size, items))
        for r in range(n):
            held[r] |= snap[r ^ d]
        rounds.append(rnd)
        d *= 2
    return Schedule(
        "allreduce", "reduce_scatter_allgather", n, nbytes, n, _freeze(rounds)
    )


# ---------------------------------------------------------------------------
# builders — the remaining operations
# ---------------------------------------------------------------------------


def broadcast_binomial(n: int, nbytes: int, root: int = 0) -> Schedule:
    """Binomial-tree broadcast from ``root``; ceil(log2 n) rounds."""
    rounds = []
    covered = 1
    while covered < n:
        rnd = []
        for rr in range(min(covered, n - covered)):
            src = (rr + root) % n
            dst = (rr + covered + root) % n
            rnd.append(Send(src, dst, nbytes, (("block", root),)))
        rounds.append(rnd)
        covered *= 2
    return Schedule("broadcast", "binomial", n, nbytes, 1, _freeze(rounds), root=root)


def allgather_ring(n: int, nbytes: int) -> Schedule:
    """Ring allgather: n-1 rounds, one block per hop."""
    rounds = [
        [Send(r, (r + 1) % n, nbytes, (("block", (r - k) % n),)) for r in range(n)]
        for k in range(n - 1)
    ]
    return Schedule("allgather", "ring", n, nbytes, 1, _freeze(rounds))


def allgather_recursive_doubling(n: int, nbytes: int) -> Schedule:
    """Recursive-doubling allgather; log2 n rounds, doubling payloads.
    Power-of-two only."""
    _require_pow2(n, "recursive doubling")
    held = [{r} for r in range(n)]
    rounds = []
    d = 1
    while d < n:
        snap = [set(h) for h in held]
        rnd = [
            Send(
                r,
                r ^ d,
                nbytes * len(snap[r]),
                tuple(("block", o) for o in sorted(snap[r])),
            )
            for r in range(n)
        ]
        for r in range(n):
            held[r] |= snap[r ^ d]
        rounds.append(rnd)
        d *= 2
    return Schedule("allgather", "recursive_doubling", n, nbytes, 1, _freeze(rounds))


def reduce_scatter_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter: rank r ends with reduced chunk r."""
    if n < 2:
        return Schedule("reduce_scatter", "ring", n, nbytes, max(n, 1), ())
    rounds = _ring_reduce_scatter_rounds(n, nbytes)
    return Schedule(
        "reduce_scatter", "ring", n, nbytes, n, _freeze(rounds),
        items_elided=n > ITEMS_EXACT_MAX_N,
    )


def reduce_scatter_halving(n: int, nbytes: int) -> Schedule:
    """Recursive-halving reduce-scatter; power-of-two only."""
    _require_pow2(n, "recursive halving")
    if n < 2:
        return Schedule("reduce_scatter", "recursive_halving", n, nbytes, 1, ())
    owned = [{("contrib", r, c) for c in range(n)} for r in range(n)]
    rounds = _halving_rounds(n, nbytes, owned)
    return Schedule(
        "reduce_scatter", "recursive_halving", n, nbytes, n, _freeze(rounds)
    )


def alltoall_ring(n: int, nbytes: int) -> Schedule:
    """Shifted-exchange all-to-all: round k sends the block for rank
    (r+k) directly; n-1 rounds of one block each."""
    rounds = [
        [
            Send(r, (r + k) % n, nbytes, (("a2a", r, (r + k) % n),))
            for r in range(n)
        ]
        for k in range(1, n)
    ]
    return Schedule("alltoall", "ring", n, nbytes, 1, _freeze(rounds))


def alltoall_bruck(n: int, nbytes: int) -> Schedule:
    """Bruck all-to-all: ceil(log2 n) rounds; blocks hop through
    intermediaries, clearing one bit of their remaining ring distance
    per round.  Latency-optimal for small blocks; ships ~(n/2) blocks
    per rank per round."""
    owned = [{("a2a", r, d) for d in range(n) if d != r} for r in range(n)]
    rounds = []
    k = 0
    while (1 << k) < n:
        step = 1 << k
        rnd = []
        gains: List[Tuple[int, Tuple[Item, ...]]] = []
        for r in range(n):
            moving = tuple(
                sorted(i for i in owned[r] if ((i[2] - r) % n) & step)
            )
            if not moving:
                continue
            dst = (r + step) % n
            rnd.append(Send(r, dst, nbytes * len(moving), moving))
            gains.append((r, dst, moving))
        for src, dst, items in gains:
            owned[src].difference_update(items)
            owned[dst].update(items)
        rounds.append(rnd)
        k += 1
    return Schedule("alltoall", "bruck", n, nbytes, 1, _freeze(rounds))


def barrier_dissemination(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Dissemination barrier: ceil(log2 n) rounds of one beacon each."""
    rounds = []
    shift = 1
    while shift < n:
        rounds.append(
            [Send(r, (r + shift) % n, MIN_WIRE_BYTES) for r in range(n)]
        )
        shift *= 2
    return Schedule("barrier", "dissemination", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def barrier_butterfly(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Pairwise-exchange barrier; power-of-two only (the paper's
    dataless global sum)."""
    log_n = _require_pow2(n, "butterfly barrier")
    rounds = [
        [Send(r, r ^ (1 << i), MIN_WIRE_BYTES) for r in range(n)]
        for i in range(log_n)
    ]
    return Schedule("barrier", "butterfly", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def barrier_tree(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Binomial gather to rank 0 + binomial release: 2(n-1) messages —
    the message-minimal barrier, at 2 ceil(log2 n) rounds of latency."""
    rounds: List[List[Send]] = []
    m = largest_pow2_below(n)
    if m < n:
        rounds.append([Send(e, e - m, MIN_WIRE_BYTES) for e in range(m, n)])
    log_m = int(math.log2(m))
    for i in range(log_m):
        rounds.append(
            [
                Send(r + (1 << i), r, MIN_WIRE_BYTES)
                for r in range(0, m, 1 << (i + 1))
            ]
        )
    for i in reversed(range(log_m)):
        rounds.append(
            [
                Send(r, r + (1 << i), MIN_WIRE_BYTES)
                for r in range(0, m, 1 << (i + 1))
            ]
        )
    if m < n:
        rounds.append([Send(e - m, e, MIN_WIRE_BYTES) for e in range(m, n)])
    return Schedule("barrier", "tree", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def _freeze(rounds: Sequence[Sequence[Send]]) -> Tuple[Tuple[Send, ...], ...]:
    return tuple(tuple(r) for r in rounds if len(r))


#: builder registry: op -> {algorithm name -> builder(n, nbytes)}.
#: Builders that genuinely require 2^k ranks raise ValueError otherwise
#: and are filtered out by :func:`candidates`.
BUILDERS: Dict[str, Dict[str, Callable[[int, int], Schedule]]] = {
    "allreduce": {
        "butterfly": allreduce_butterfly,
        "ring": allreduce_ring,
        "reduce_scatter_allgather": allreduce_reduce_scatter_allgather,
        "tree": allreduce_tree,
    },
    "broadcast": {"binomial": broadcast_binomial},
    "allgather": {
        "ring": allgather_ring,
        "recursive_doubling": allgather_recursive_doubling,
    },
    "reduce_scatter": {
        "ring": reduce_scatter_ring,
        "recursive_halving": reduce_scatter_halving,
    },
    "alltoall": {"ring": alltoall_ring, "bruck": alltoall_bruck},
    "barrier": {
        "dissemination": barrier_dissemination,
        "butterfly": barrier_butterfly,
        "tree": barrier_tree,
    },
}
