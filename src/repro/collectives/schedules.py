"""Pure collective-communication schedules for the Arctic fabric.

Every algorithm is described *declaratively*, in two layers.  Its
**wire** — who sends how many bytes to whom, round by round — is stated
by the builder as index arrays from the algorithm's closed form
(``r ^ (1 << i)``, ``(r + k) % n``, chunk-range byte counts) and is all
a built :class:`Schedule` holds: its ``columns``, what the cost model
prices and the DES timing path replays.  ``nbytes`` is the real
algorithm's message size — e.g. one reduced chunk per ring hop.  Its
**items** name the logical data each message carries — per-rank
contributions ``("contrib", origin, chunk)``, reduced chunks
``("reduced", chunk)``, allgather/broadcast blocks ``("block", origin)``
and all-to-all blocks ``("a2a", origin, dest)`` — and are a second,
per-algorithm rule that runs the first time ``.rounds`` (the
:class:`Send` records ``(src, dst, nbytes, items)``) is read: by the one
generic executor (:mod:`repro.collectives.semantics`), which runs *any*
schedule bit-deterministically from them, and by
:meth:`Schedule.validate`, which proves by item-flow simulation that
every rank finishes with what its operation requires.  Past
:data:`ITEMS_EXACT_MAX_N` ranks the rule is never run: the schedule is
timing/costing-only.

Determinism contract: reduction executors never combine values in
message-arrival order; they collect tagged contributions and apply
:func:`repro.parallel.globalsum.canonical_fold_reduce` once a chunk is
complete.  Every all-reduce algorithm here therefore returns results
bitwise identical to the paper's butterfly global sum, for any rank
count, under any fault plan survivable by the reliable layer.

Non-power-of-two counts fold into the largest power of two below
(pre/post rounds, as in :mod:`repro.parallel.globalsum`) where the
algorithm allows it; recursive halving/doubling genuinely require
``2^k`` ranks and raise ``ValueError`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.network.overheads import MIN_WIRE_BYTES
from repro.parallel.globalsum import largest_pow2_below

#: Operations the subsystem implements.
OPS = ("allreduce", "broadcast", "allgather", "reduce_scatter", "alltoall", "barrier")

#: Collective payloads are float64 vectors; chunking is element-aligned.
ITEM_BYTES = 8

Item = Tuple  # ("contrib", o, c) | ("reduced", c) | ("block", o) | ("a2a", o, d)


def is_pow2(n: int) -> bool:
    """True when ``n`` is a power of two."""
    return n > 0 and not (n & (n - 1))


def _require_pow2(n: int, algorithm: str) -> int:
    if not is_pow2(n):
        raise ValueError(
            f"{algorithm} genuinely requires a power-of-two rank count, got {n}"
        )
    return int(math.log2(n))


def chunk_elems(total_elems: int, n_chunks: int, c: int) -> int:
    """Elements in chunk ``c`` of an even element-aligned split."""
    base, extra = divmod(total_elems, n_chunks)
    return base + (1 if c < extra else 0)


def chunk_start(total_elems: int, n_chunks: int, c: int) -> int:
    """First element index of chunk ``c`` of an even split."""
    base, extra = divmod(total_elems, n_chunks)
    return c * base + min(c, extra)


def chunk_nbytes(nbytes: int, n_chunks: int, c: int) -> int:
    """Wire bytes of chunk ``c`` when an ``nbytes`` vector splits n ways."""
    return ITEM_BYTES * chunk_elems(max(nbytes // ITEM_BYTES, 1), n_chunks, c)


def chunk_range_nbytes(nbytes: int, n_chunks: int, lo: int, hi: int) -> int:
    """Wire bytes of chunks ``lo..hi-1`` combined (closed form, O(1))."""
    total = max(nbytes // ITEM_BYTES, 1)
    return ITEM_BYTES * (
        chunk_start(total, n_chunks, hi) - chunk_start(total, n_chunks, lo)
    )


@dataclass(frozen=True, slots=True)
class Send:
    """One directed message: ``src`` ships ``items`` (``nbytes`` on the
    wire) to ``dst`` within its round."""

    src: int
    dst: int
    nbytes: int
    items: Tuple[Item, ...] = ()


class Columns(NamedTuple):
    """A schedule's sends as read-only index arrays in schedule order
    (round ``r`` is ``bounds[r]:bounds[r + 1]``): an edge list with
    everything derivable from the schedule alone built once."""

    bounds: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    #: distinct wire byte counts (floored at ``MIN_WIRE_BYTES``) and
    #: distinct ``(src, dst)`` pairs (shape ``(P, 2)``), each with every
    #: send's index into them.
    sizes: np.ndarray
    size_of: np.ndarray
    pairs: np.ndarray
    pair_of: np.ndarray
    #: ``send_waves[r][k]`` indexes, within round ``r``, the sends that
    #: are the k-th (in schedule order) from their source, ``recv_waves``
    #: the k-th to their destination: within a wave no rank repeats.
    send_waves: Tuple[tuple, ...]
    recv_waves: Tuple[tuple, ...]


def _waves(rank: np.ndarray, bounds: List[int], n: int) -> Tuple[tuple, ...]:
    """Per round, peel off the first remaining message of every rank
    until none is left; a round where no rank repeats is one slice."""
    counts = np.diff(bounds)
    in_round = np.repeat(np.arange(len(counts)), counts) * n + rank
    if np.bincount(in_round, minlength=1).max() <= 1:  # no rank repeats in any round
        return tuple((slice(None),) if k else () for k in counts.tolist())
    waves = []
    for lo, hi in zip(bounds, bounds[1:]):
        left, peeled = np.arange(hi - lo), []
        while len(left):
            first = np.unique(rank[lo:hi][left], return_index=True)[1]
            peeled.append(left[first])
            left = np.delete(left, first)
        waves.append(tuple(peeled) if len(peeled) != 1 else (slice(None),))
    return tuple(waves)


def _columns(n: int, counts: List[int], src, dst, nbytes) -> Columns:
    """Everything derivable from the wire — sends per round and the
    three arrays in schedule order — built once, read-only."""
    edges = np.cumsum([0] + counts).tolist()
    sizes, size_of = np.unique(np.maximum(nbytes, MIN_WIRE_BYTES), return_inverse=True)
    pair, pair_of = np.unique(src * n + dst, return_inverse=True)
    col = Columns(
        np.array(edges), src, dst, nbytes, sizes, size_of,
        np.stack(np.divmod(pair, n), axis=1), pair_of,
        _waves(src, edges, n), _waves(dst, edges, n),
    )
    for a in col[:8]:
        a.setflags(write=False)
    return col


@dataclass(frozen=True, init=False, eq=False)
class Schedule:
    """A collective as per-round directed sends.

    ``chunking`` is the number of element-aligned chunks the payload
    vector is split into (1 for unchunked algorithms, ``n`` for ring /
    recursive-halving ones); ``nbytes`` is the operation's nominal
    payload (per rank for allreduce/reduce_scatter/broadcast, per block
    for allgather/alltoall).

    A hand-made schedule is given its ``rounds`` and derives ``columns``
    from them; a built one (:func:`build`) is given its ``columns`` and
    an ``item_rule`` — a callable yielding every send's item tuple in
    schedule order — and derives ``rounds`` from those, on first access.
    """

    op: str
    algorithm: str
    n: int
    nbytes: int
    chunking: int
    root: int
    #: Item lists omitted (a ring ships O(n^3) items in total; every
    #: built schedule past :data:`ITEMS_EXACT_MAX_N` is wire-only).
    #: Timing/costing still works; the data engines refuse such schedules.
    items_elided: bool

    def __init__(
        self, op, algorithm, n, nbytes, chunking, rounds=None, root=0,
        items_elided=False, *, columns: Optional[Columns] = None, item_rule=None,
    ) -> None:
        if (rounds is None) == (columns is None):
            raise TypeError("a Schedule is made from its rounds or from its columns")
        made = {"rounds": rounds} if columns is None else {"columns": columns}
        vars(self).update(
            made, op=op, algorithm=algorithm, n=n, nbytes=nbytes, chunking=chunking,
            root=root, items_elided=items_elided, _item_rule=item_rule,
        )

    @cached_property
    def columns(self) -> Columns:
        """The columnar view of hand-made rounds, built on first use."""
        counts = [len(rnd) for rnd in self.rounds]
        src, dst, nbytes = np.fromiter(
            (x for rnd in self.rounds for s in rnd for x in (s.src, s.dst, s.nbytes)),
            dtype=np.intp, count=3 * sum(counts),
        ).reshape(-1, 3).T.copy()
        return _columns(self.n, counts, src, dst, nbytes)

    @cached_property
    def rounds(self) -> Tuple[Tuple[Send, ...], ...]:
        """The :class:`Send` records of a built schedule: its wire plus
        what the item rule says each message carries (nothing when
        elided), made on first use — nothing that prices or times a
        schedule reads them."""
        col = self.columns
        items = self._item_rule() if self._item_rule else repeat(())
        sends = [
            Send(*send)
            for send in zip(col.src.tolist(), col.dst.tolist(), col.nbytes.tolist(), items)
        ]
        bounds = col.bounds.tolist()
        return tuple(tuple(sends[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @property
    def n_rounds(self) -> int:
        return len(self.columns.bounds) - 1

    @property
    def total_messages(self) -> int:
        return len(self.columns.src)

    @property
    def total_bytes(self) -> int:
        return int(np.maximum(self.columns.nbytes, MIN_WIRE_BYTES).sum())

    # ---- validation ---------------------------------------------------

    def validate(self) -> None:
        """Structural + data-flow check; raises ``ValueError`` on failure.

        Structure: rank indices in range, no self-sends, non-negative
        sizes.  Data flow: simulate item possession round by round (a
        sender must be able to *produce* every item it ships) and check
        the per-operation completion criterion on every rank; for
        barriers, check transitive-knowledge closure instead.
        """
        for rnd in self.rounds:
            for s in rnd:
                if not (0 <= s.src < self.n and 0 <= s.dst < self.n):
                    raise ValueError(f"rank out of range in {s}")
                if s.src == s.dst:
                    raise ValueError(f"self-send in {s}")
                if s.nbytes < 0:
                    raise ValueError(f"negative payload in {s}")
        if self.items_elided:
            return  # no item lists to data-flow-check
        if self.op == "barrier":
            know = [{r} for r in range(self.n)]
            for rnd in self.rounds:
                snap = [set(k) for k in know]
                for s in rnd:
                    know[s.dst] |= snap[s.src]
            full = set(range(self.n))
            lacking = [r for r in range(self.n) if know[r] != full]
            if lacking:
                raise ValueError(
                    f"barrier {self.algorithm}: ranks {lacking} do not hear "
                    f"from every peer"
                )
            return
        owned = simulate_items(self)
        for r in range(self.n):
            missing = _missing_for(self, r, owned[r])
            if missing:
                raise ValueError(
                    f"{self.op} {self.algorithm}: rank {r} cannot finish, "
                    f"missing {sorted(missing)[:4]}..."
                )


def _producible(have: set, item: Item, n: int) -> bool:
    """Can a rank holding ``have`` produce ``item``?  A reduced chunk is
    producible from the full contribution set."""
    if item in have:
        return True
    if item[0] == "reduced":
        c = item[1]
        return all(("contrib", o, c) in have for o in range(n))
    return False


def simulate_items(schedule: Schedule) -> List[set]:
    """Replay the schedule's item flow; returns final possession sets.

    Raises ``ValueError`` if any send ships an item its source cannot
    produce at that round — the data-flow soundness check.
    """
    owned = [set(_initial_items(schedule, r)) for r in range(schedule.n)]
    for i, rnd in enumerate(schedule.rounds):
        snap = [set(o) for o in owned]
        for s in rnd:
            for item in s.items:
                if not _producible(snap[s.src], item, schedule.n):
                    raise ValueError(
                        f"{schedule.op} {schedule.algorithm} round {i}: rank "
                        f"{s.src} cannot produce {item}"
                    )
            owned[s.dst].update(s.items)
    return owned


def _initial_items(schedule: Schedule, rank: int) -> Iterable[Item]:
    op, n, c = schedule.op, schedule.n, schedule.chunking
    if op in ("allreduce", "reduce_scatter"):
        return [("contrib", rank, ci) for ci in range(c)]
    if op == "broadcast":
        return [("block", schedule.root)] if rank == schedule.root else []
    if op == "allgather":
        return [("block", rank)]
    if op == "alltoall":
        return [("a2a", rank, d) for d in range(n)]
    return []


def _missing_for(schedule: Schedule, rank: int, have: set) -> set:
    """Items rank still needs to finish its operation."""
    op, n, c = schedule.op, schedule.n, schedule.chunking
    need: set = set()
    if op == "allreduce":
        need = {("reduced", ci) for ci in range(c)}
    elif op == "reduce_scatter":
        need = {("reduced", rank)} if c == n else {("reduced", 0)}
    elif op == "broadcast":
        need = {("block", schedule.root)}
    elif op == "allgather":
        need = {("block", o) for o in range(n)}
    elif op == "alltoall":
        need = {("a2a", o, rank) for o in range(n)}
    return {item for item in need if not _producible(have, item, n)}


# ---------------------------------------------------------------------------
# builders: each algorithm's wire, and the rule naming what rides on it
# ---------------------------------------------------------------------------

#: Largest rank count whose built schedules carry item lists.  A ring
#: ships O(n^3) items in total; past the DES data engine's own 64-rank
#: cap the lists are dead weight (half a gigabyte at n=256), so the item
#: rule is dropped and the schedule is timing/costing-only.
ITEMS_EXACT_MAX_N = 64

#: one round of a wire: ``(src, dst, nbytes)`` of its sends, in order
Round = Tuple[np.ndarray, np.ndarray, object]
ItemRule = Callable[[], Iterable[Tuple[Item, ...]]]

_REDUCED0 = (("reduced", 0),)


def _wired(
    op: str, algorithm: str, n: int, nbytes: int, chunking: int,
    wire: List[Round], items: Optional[ItemRule] = None, root: int = 0,
) -> Schedule:
    """The schedule a builder returns.  ``wire`` is what is built now:
    per round the ``(src, dst, nbytes)`` of its sends in schedule order
    (index arrays; one byte count may stand for a whole round).
    ``items()`` yields each send's item tuple in the same order and is
    only called if somebody reads ``.rounds`` of a schedule small enough
    to carry items."""
    none = [np.empty(0, np.intp)]
    counts = [len(src) for src, _, _ in wire]
    src, dst = (np.concatenate(none + [rnd[i] for rnd in wire]) for i in (0, 1))
    size = np.concatenate(none + [np.broadcast_to(rnd[2], k) for rnd, k in zip(wire, counts)])
    elided = items is not None and n > ITEMS_EXACT_MAX_N
    return Schedule(
        op, algorithm, n, nbytes, chunking, root=root, items_elided=elided,
        columns=_columns(n, counts, src, dst, size), item_rule=None if elided else items,
    )


def _chunk_offsets(nbytes: int, n: int) -> np.ndarray:
    """Byte offset of every boundary of an n-way split: chunks
    ``lo..hi-1`` are ``offsets[hi] - offsets[lo]`` bytes
    (:func:`chunk_range_nbytes` for whole index arrays)."""
    total = max(nbytes // ITEM_BYTES, 1)
    return ITEM_BYTES * np.array([chunk_start(total, n, c) for c in range(n + 1)])


def _folded(n: int, nbytes: int, wire: List[Round]) -> List[Round]:
    """Wrap a base-group wire in the fold rounds of a non-power-of-two
    count: the extras ship in first and are answered last."""
    m = largest_pow2_below(n)
    extra = np.arange(m, n)
    return [(extra, extra - m, nbytes), *wire, (extra - m, extra, nbytes)] if m < n else wire


def _heard(n: int, lo: int, hi: int) -> Tuple[Item, ...]:
    """What a base-group rank holds once base ranks ``lo..hi-1`` have
    reached it: their contributions and their folded extras', sorted."""
    m = largest_pow2_below(n)
    return tuple(("contrib", o, 0) for o in (*range(lo, hi), *range(lo + m, min(hi + m, n))))


def allreduce_butterfly(n: int, nbytes: int) -> Schedule:
    """Recursive doubling; folds non-power-of-two counts (Fig. 8)."""
    m = largest_pow2_below(n)
    base = np.arange(m)
    steps = [1 << i for i in range(m.bit_length() - 1)]

    def items():  # before the exchange at distance d a rank holds its aligned d-block
        yield from ((("contrib", e, 0),) for e in range(m, n))
        yield from (_heard(n, r & -d, (r & -d) + d) for d in steps for r in range(m))
        yield from repeat(_REDUCED0)

    wire = _folded(n, nbytes, [(base, base ^ d, nbytes) for d in steps])
    return _wired("allreduce", "butterfly", n, nbytes, 1, wire, items)


def _tree_wire(n: int, nbytes: int) -> List[Round]:
    """Binomial gather onto rank 0, then the same tree downwards."""
    m = largest_pow2_below(n)
    up = [
        (np.arange(1 << i, m, 2 << i), np.arange(0, m, 2 << i), nbytes)
        for i in range(m.bit_length() - 1)
    ]
    return _folded(n, nbytes, up + [(dst, src, nbytes) for src, dst, _ in reversed(up)])


def allreduce_tree(n: int, nbytes: int) -> Schedule:
    """Binomial-tree reduce to rank 0 then broadcast; 2 log2 m rounds."""
    m = largest_pow2_below(n)

    def items():  # gathering at level i, a rank ships the 2^i-block it heads
        yield from ((("contrib", e, 0),) for e in range(m, n))
        for i in range(m.bit_length() - 1):
            yield from (_heard(n, s, s + (1 << i)) for s in range(1 << i, m, 2 << i))
        yield from repeat(_REDUCED0)

    return _wired("allreduce", "tree", n, nbytes, 1, _tree_wire(n, nbytes), items)


def _ring_reduce_scatter(n: int, nbytes: int) -> Tuple[List[Round], ItemRule, np.ndarray]:
    """n-1 rounds leaving rank r with the full contribution set of chunk
    r; each hop ships one (partially reduced) chunk to rank r+1: in
    round k rank r forwards chunk ``(r-k-1) % n`` carrying the k+1
    contributions ``{(r-k) % n, ..., r}`` it has accumulated
    (:meth:`Schedule.validate` independently checks the closed form).
    Returns the wire, the item rule and every chunk's byte count."""
    r = np.arange(n)
    size = np.diff(_chunk_offsets(nbytes, n))
    wire = [(r, (r + 1) % n, size[(r - k - 1) % n]) for k in range(n - 1)]

    def items():
        for k in range(n - 1):
            for q in range(n):
                origins = sorted((q - j) % n for j in range(k + 1))
                yield tuple(("contrib", o, (q - k - 1) % n) for o in origins)

    return wire, items, size


def allreduce_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter + ring allgather; bandwidth-optimal
    (2(n-1) rounds, ~2*nbytes total per rank)."""
    wire, scatter_items, size = _ring_reduce_scatter(n, nbytes)
    r = np.arange(n)
    wire += [(r, (r + 1) % n, size[(r - k) % n]) for k in range(n - 1)]

    def items():  # ... then the allgather of the reduced chunks
        yield from scatter_items()
        yield from ((("reduced", (q - k) % n),) for k in range(n - 1) for q in range(n))

    return _wired("allreduce", "ring", n, nbytes, max(n, 1), wire, items)


def _halving(n: int, nbytes: int) -> Tuple[List[Round], ItemRule, np.ndarray]:
    """Recursive halving: log2 n rounds ending with rank r holding the
    full contribution set of chunk r.  At distance d a rank ships the
    aligned d-block of chunks its partner keeps, from every origin it
    has heard so far (the ranks congruent to it mod 2d).  Returns the
    wire, the item rule and the chunk byte offsets."""
    r = np.arange(n)
    off = _chunk_offsets(nbytes, n)
    steps = [n >> t for t in range(1, n.bit_length())]
    wire = [(r, r ^ d, off[((r ^ d) & -d) + d] - off[(r ^ d) & -d]) for d in steps]

    def items():
        for d in steps:
            for q in range(n):
                sent = range((q ^ d) & -d, ((q ^ d) & -d) + d)
                yield tuple(("contrib", o, c) for o in range(q % (2 * d), n, 2 * d) for c in sent)

    return wire, items, off


def _doubling_items(n: int, kind: str) -> Iterator[Tuple[Item, ...]]:
    """Recursive-doubling allgather: at distance d rank r ships the
    aligned d-block ``r & -d ..`` it holds."""
    for d in (1 << i for i in range(n.bit_length() - 1)):
        yield from (tuple((kind, c) for c in range(q & -d, (q & -d) + d)) for q in range(n))


def allreduce_reduce_scatter_allgather(n: int, nbytes: int) -> Schedule:
    """Recursive halving + recursive doubling (Rabenseifner); needs 2^k."""
    log_n = _require_pow2(n, "reduce-scatter+allgather")
    wire, scatter_items, off = _halving(n, nbytes)
    r = np.arange(n)
    wire += [(r, r ^ d, off[(r & -d) + d] - off[r & -d]) for d in (1 << i for i in range(log_n))]

    def items():  # ... then the allgather of the reduced chunks
        yield from scatter_items()
        yield from _doubling_items(n, "reduced")

    return _wired("allreduce", "reduce_scatter_allgather", n, nbytes, n, wire, items)


# ---------------------------------------------------------------------------
# builders — the remaining operations
# ---------------------------------------------------------------------------


def broadcast_binomial(n: int, nbytes: int, root: int = 0) -> Schedule:
    """Binomial-tree broadcast from ``root``; ceil(log2 n) rounds."""
    wire = []
    covered = 1
    while covered < n:
        rr = np.arange(min(covered, n - covered))
        wire.append(((rr + root) % n, (rr + covered + root) % n, nbytes))
        covered *= 2
    return _wired(
        "broadcast", "binomial", n, nbytes, 1, wire, lambda: repeat((("block", root),)), root=root
    )


def allgather_ring(n: int, nbytes: int) -> Schedule:
    """Ring allgather: n-1 rounds, one block per hop."""
    r = np.arange(n)
    return _wired(
        "allgather", "ring", n, nbytes, 1, [(r, (r + 1) % n, nbytes)] * (n - 1),
        lambda: ((("block", (q - k) % n),) for k in range(n - 1) for q in range(n)),
    )


def allgather_recursive_doubling(n: int, nbytes: int) -> Schedule:
    """Recursive-doubling allgather; log2 n rounds, doubling payloads.
    Power-of-two only."""
    log_n = _require_pow2(n, "recursive doubling")
    r = np.arange(n)
    wire = [(r, r ^ (1 << i), nbytes << i) for i in range(log_n)]
    return _wired(
        "allgather", "recursive_doubling", n, nbytes, 1, wire,
        lambda: _doubling_items(n, "block"),
    )


def reduce_scatter_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter: rank r ends with reduced chunk r."""
    wire, items, _ = _ring_reduce_scatter(n, nbytes)
    return _wired("reduce_scatter", "ring", n, nbytes, max(n, 1), wire, items)


def reduce_scatter_halving(n: int, nbytes: int) -> Schedule:
    """Recursive-halving reduce-scatter; power-of-two only."""
    _require_pow2(n, "recursive halving")
    wire, items, _ = _halving(n, nbytes)
    return _wired("reduce_scatter", "recursive_halving", n, nbytes, n, wire, items)


def alltoall_ring(n: int, nbytes: int) -> Schedule:
    """Shifted-exchange all-to-all: round k sends the block for rank
    (r+k) directly; n-1 rounds of one block each."""
    r = np.arange(n)
    return _wired(
        "alltoall", "ring", n, nbytes, 1, [(r, (r + k) % n, nbytes) for k in range(1, n)],
        lambda: ((("a2a", q, (q + k) % n),) for k in range(1, n) for q in range(n)),
    )


def alltoall_bruck(n: int, nbytes: int) -> Schedule:
    """Bruck all-to-all: ceil(log2 n) rounds; blocks hop through
    intermediaries, clearing one bit of their remaining ring distance
    per round.  Latency-optimal for small blocks; ships ~(n/2) blocks
    per rank per round."""
    r = np.arange(n)
    # per round, the blocks on the move: (ring distance already covered,
    # whole ring distance) of every journey with that round's bit set
    hops = [
        [(j & (step - 1), j) for j in range(1, n) if j & step]
        for step in (1 << k for k in range((n - 1).bit_length()))
    ]
    wire = [(r, (r + (1 << k)) % n, nbytes * len(moving)) for k, moving in enumerate(hops)]

    def items():
        for moving in hops:
            for q in range(n):
                yield tuple(sorted(("a2a", (q - at) % n, (q - at + j) % n) for at, j in moving))

    return _wired("alltoall", "bruck", n, nbytes, 1, wire, items)


def barrier_dissemination(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Dissemination barrier: ceil(log2 n) rounds of one beacon each."""
    r = np.arange(n)
    wire = [(r, (r + (1 << k)) % n, MIN_WIRE_BYTES) for k in range((n - 1).bit_length())]
    return _wired("barrier", "dissemination", n, MIN_WIRE_BYTES, 1, wire)


def barrier_butterfly(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Pairwise-exchange barrier; power-of-two only (the paper's
    dataless global sum)."""
    log_n = _require_pow2(n, "butterfly barrier")
    r = np.arange(n)
    wire = [(r, r ^ (1 << i), MIN_WIRE_BYTES) for i in range(log_n)]
    return _wired("barrier", "butterfly", n, MIN_WIRE_BYTES, 1, wire)


def barrier_tree(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Binomial gather to rank 0 + binomial release: 2(n-1) messages —
    the message-minimal barrier, at 2 ceil(log2 n) rounds of latency."""
    return _wired("barrier", "tree", n, MIN_WIRE_BYTES, 1, _tree_wire(n, MIN_WIRE_BYTES))


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

#: Algorithms that only exist for power-of-two rank counts.
POW2_ONLY = {
    ("allreduce", "reduce_scatter_allgather"),
    ("allgather", "recursive_doubling"),
    ("reduce_scatter", "recursive_halving"),
    ("barrier", "butterfly"),
}


def candidates(op: str, n: int) -> Mapping[str, Callable[[int, int], Schedule]]:
    """Builders applicable to ``op`` at rank count ``n``."""
    if op not in BUILDERS:
        raise ValueError(f"unknown collective op {op!r}; choose from {OPS}")
    return {
        name: fn
        for name, fn in BUILDERS[op].items()
        if is_pow2(n) or (op, name) not in POW2_ONLY
    }


def build(op: str, algorithm: str, n: int, nbytes: int) -> Schedule:
    """One named schedule (raises for unknown names / bad n), shared by
    every consumer through a memo keyed on all the builders read."""
    return _build(op, algorithm, n, int(nbytes), ITEMS_EXACT_MAX_N)


# one sweep point's candidates (unbounded: +40 MB on a default scoreboard)
@lru_cache(maxsize=4)
def _build(op: str, algorithm: str, n: int, nbytes: int, exact_max_n: int) -> Schedule:
    try:
        fn = BUILDERS[op][algorithm]
    except KeyError:
        raise ValueError(f"no algorithm {algorithm!r} for op {op!r}") from None
    return fn(n, nbytes)
