"""Generic data engine executing any collective schedule bit-exactly.

One :class:`ItemStore` per rank holds the logical items named by the
schedule's sends (contributions, reduced chunks, blocks).  Serializing
a send's items produces a byte string; absorbing it on the receiver
merges the items.  The reduction rule is the whole determinism story:
a reduced chunk is only ever materialised by
:func:`repro.parallel.globalsum.canonical_fold_reduce` over the *full*
ordered contribution set — never by accumulating in message-arrival
order — so every algorithm, every rank layout and every fault/retry
interleaving yields bitwise-identical numbers.

:func:`run_schedule` executes a schedule in-process (no DES): the
reference semantics that the DES executors in
:mod:`repro.collectives.des_exec` must reproduce exactly.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.globalsum import canonical_fold_reduce

from .schedules import Item, Schedule, chunk_elems, chunk_start

_KINDS = {"contrib": 0, "reduced": 1, "block": 2, "a2a": 3}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_HDR = struct.Struct(">BhhI")  # kind, idx0, idx1, element count


def as_vector(value) -> np.ndarray:
    """Coerce one rank's input to a float64 vector (scalars -> shape 1)."""
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


#: On-wire element formats per payload width (big-endian, like _HDR).
_WIRE_FMTS = {4: ">f4", 8: ">f8"}


class ItemStore:
    """Per-rank item storage + serialization for one collective run.

    ``wire_dtype`` selects the payload element format (float64 by
    default — the seed's bit-exact stream; float32 packs each element
    in 4 bytes, so values quantize exactly once on first serialization
    and every further hop is lossless).
    """

    def __init__(self, schedule: Schedule, rank: int, value=None, wire_dtype=None) -> None:
        self.schedule = schedule
        self.rank = rank
        wd = np.dtype(wire_dtype if wire_dtype is not None else np.float64)
        if wd.itemsize not in _WIRE_FMTS:
            raise ValueError(f"wire dtype must be float32/float64, got {wd}")
        self._wire_fmt = _WIRE_FMTS[wd.itemsize]
        self._wire_size = wd.itemsize
        self.items: Dict[Item, np.ndarray] = {}
        op, n, c = schedule.op, schedule.n, schedule.chunking
        if op in ("allreduce", "reduce_scatter"):
            vec = as_vector(value)
            m = len(vec)
            for ci in range(c):
                s = chunk_start(m, c, ci)
                self.items[("contrib", rank, ci)] = vec[s : s + chunk_elems(m, c, ci)]
            self._elems = m
        elif op == "broadcast":
            if rank == schedule.root:
                self.items[("block", schedule.root)] = as_vector(value)
        elif op == "allgather":
            self.items[("block", rank)] = as_vector(value)
        elif op == "alltoall":
            blocks = np.asarray(value, dtype=np.float64)
            if blocks.ndim == 1:
                blocks = blocks.reshape(n, -1)
            if blocks.shape[0] != n:
                raise ValueError(f"alltoall input needs {n} blocks, got {blocks.shape}")
            for d in range(n):
                self.items[("a2a", rank, d)] = np.ascontiguousarray(blocks[d])
        elif op != "barrier":
            raise ValueError(f"unknown op {op!r}")

    # ---- reduction -----------------------------------------------------

    def _reduced(self, c: int) -> np.ndarray:
        key = ("reduced", c)
        if key not in self.items:
            n = self.schedule.n
            try:
                parts = [self.items[("contrib", o, c)] for o in range(n)]
            except KeyError as exc:
                raise KeyError(
                    f"rank {self.rank}: chunk {c} incomplete, missing {exc}"
                ) from None
            self.items[key] = np.atleast_1d(canonical_fold_reduce(parts))
        return self.items[key]

    def get(self, item: Item) -> np.ndarray:
        """Materialise one item (reduced chunks fold on first use)."""
        if item[0] == "reduced":
            return self._reduced(item[1])
        return self.items[item]

    # ---- wire format ---------------------------------------------------

    def serialize(self, items: Sequence[Item]) -> bytes:
        """Pack the named items into one wire message."""
        out = [struct.pack(">H", len(items))]
        for item in items:
            arr = self.get(item)
            kind = _KINDS[item[0]]
            idx0 = item[1]
            idx1 = item[2] if len(item) > 2 else 0
            out.append(_HDR.pack(kind, idx0, idx1, len(arr)))
            out.append(arr.astype(self._wire_fmt).tobytes())
        return b"".join(out)

    def serialized_nbytes(self, items: Sequence[Item]) -> int:
        """Exact wire size :meth:`serialize` would produce for ``items``
        (headers + payload at this store's wire dtype), without packing."""
        return 2 + sum(
            _HDR.size + len(self.get(item)) * self._wire_size for item in items
        )

    def absorb(self, data: bytes) -> None:
        """Merge a received message's items into the store."""
        (count,) = struct.unpack_from(">H", data, 0)
        off = 2
        for _ in range(count):
            kind, idx0, idx1, nelem = _HDR.unpack_from(data, off)
            off += _HDR.size
            arr = np.frombuffer(
                data, dtype=self._wire_fmt, count=nelem, offset=off
            ).astype(np.float64)
            off += nelem * self._wire_size
            name = _KIND_NAMES[kind]
            item: Item = (name, idx0) if name == "reduced" else (name, idx0, idx1)
            if name == "block":
                item = ("block", idx0)
            # duplicates are deterministic replays: keep the first copy
            self.items.setdefault(item, arr)

    # ---- result --------------------------------------------------------

    def finish(self):
        """This rank's operation result (None for barrier)."""
        sch = self.schedule
        op, n, c = sch.op, sch.n, sch.chunking
        if op == "allreduce":
            return np.concatenate([np.atleast_1d(self._reduced(ci)) for ci in range(c)])
        if op == "reduce_scatter":
            return self._reduced(self.rank if c == n else 0)
        if op == "broadcast":
            return self.items[("block", sch.root)]
        if op == "allgather":
            return np.concatenate([self.items[("block", o)] for o in range(n)])
        if op == "alltoall":
            return np.stack([self.items[("a2a", o, self.rank)] for o in range(n)])
        return None


def run_schedule(
    schedule: Schedule, inputs: Optional[Sequence] = None, wire_dtype=None
) -> List:
    """Execute a schedule in-process; returns per-rank results.

    Reference semantics for the DES executors: within each round every
    rank serializes its sends from pre-round state, then all messages
    are absorbed — matching the DES rank processes, which post their
    sends before draining their receives.

    ``wire_dtype`` narrows every message payload (see
    :class:`ItemStore`); results then carry exactly the quantization a
    float32 wire would produce, still deterministically.
    """
    if schedule.items_elided:
        raise ValueError(
            f"{schedule.algorithm} schedule at n={schedule.n} is "
            "timing-only (item lists elided past ITEMS_EXACT_MAX_N)"
        )
    n = schedule.n
    if inputs is None:
        inputs = [None] * n
    stores = [
        ItemStore(schedule, r, inputs[r], wire_dtype=wire_dtype) for r in range(n)
    ]
    for rnd in schedule.rounds:
        wire: List[Tuple[int, bytes]] = [
            (s.dst, stores[s.src].serialize(s.items)) for s in rnd
        ]
        for dst, data in wire:
            stores[dst].absorb(data)
    return [st.finish() for st in stores]


def reference_result(op: str, inputs: Sequence, n: int) -> List:
    """Ground truth computed without any schedule (canonical order; a
    broadcast is from rank 0)."""
    if op == "barrier":
        return [None] * n
    if op == "broadcast":
        vec = as_vector(inputs[0])
        return [vec.copy() for _ in range(n)]
    if op == "allgather":
        full = np.concatenate([as_vector(v) for v in inputs])
        return [full.copy() for _ in range(n)]
    if op == "alltoall":
        blocks = [np.asarray(v, dtype=np.float64).reshape(n, -1) for v in inputs]
        return [np.stack([blocks[o][r] for o in range(n)]) for r in range(n)]
    vecs = [as_vector(v) for v in inputs]
    total = np.atleast_1d(canonical_fold_reduce(vecs))
    if op == "allreduce":
        return [total.copy() for _ in range(n)]
    if op == "reduce_scatter":
        m = len(total)
        return [
            total[chunk_start(m, n, r) : chunk_start(m, n, r) + chunk_elems(m, n, r)]
            for r in range(n)
        ]
    raise ValueError(f"unknown op {op!r}")
