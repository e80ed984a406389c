"""The exchange primitive: functional halo fill across tiles.

Brings every tile's halo region into a consistent state with its
neighbours' interiors (paper Section 4, Fig. 5).  The fill runs in two
passes — x first over interior rows, then y over the *full* width
including the freshly-filled x halos — so corner cells receive correct
diagonal-neighbour data, which a 3x3 stencil in PS requires.

This module is purely functional (real NumPy data movement); virtual
communication time is charged by :class:`repro.parallel.runtime.LockstepRuntime`
using the interconnect cost models, mirroring how the paper separates
the primitive's semantics from its measured cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.parallel.tiling import Decomposition


def _build_plans(decomp: Decomposition, w: int) -> tuple[list, list]:
    """Precompute the copy schedules of a width-``w`` exchange.

    Tiles are uniform, so every copy of one direction has the same
    slices and differs only in the ranks it joins.  Two spellings of the
    same schedule come back: ``tile_plan``, one ``(dst_rank, dst_index,
    src_rank, src_index)`` slice copy per halo for a sequence of tiles,
    and ``stack_plan``, one ``(dst_index, src_index)`` advanced-index
    copy per direction (the ranks lead the index) for a stacked field.
    Executing either in order reproduces the two-pass fill exactly
    (x first over interior rows, then y over the full width including
    fresh x halos); within a pass every copy reads interiors (or pass-1
    halos) and writes halos, so the copies of one direction commute.
    """
    o, t = decomp.olx, decomp.tiles[0]
    if w < 0:
        # A negative width would flip the halo slices into interior
        # ranges and silently overwrite interior cells.
        raise ValueError(f"exchange width must be >= 0, got {w}")
    if w > o:
        raise ValueError(f"exchange width {w} exceeds halo {o}")
    if w == 0:
        return [], []
    rows = slice(o, o + t.ny)
    cols = slice(o - w, o + t.nx + w)
    slabs = {
        # Pass 1: x-direction (west/east), interior rows only.
        "west": ((Ellipsis, rows, slice(o - w, o)),
                 (Ellipsis, rows, slice(o + t.nx - w, o + t.nx))),
        "east": ((Ellipsis, rows, slice(o + t.nx, o + t.nx + w)),
                 (Ellipsis, rows, slice(o, o + w))),
        # Pass 2: y-direction (south/north), full x extent including x halos.
        "south": ((Ellipsis, slice(o - w, o), cols),
                  (Ellipsis, slice(o + t.ny - w, o + t.ny), cols)),
        "north": ((Ellipsis, slice(o + t.ny, o + t.ny + w), cols),
                  (Ellipsis, slice(o, o + w), cols)),
    }
    tile_plan, stack_plan = [], []
    for direction, (dst_index, src_index) in slabs.items():
        pairs = [(r, decomp.neighbor(r, direction)) for r in range(decomp.n_ranks)]
        pairs = [(r, n) for r, n in pairs if n is not None]
        if pairs:
            tile_plan += [(r, dst_index, n, src_index) for r, n in pairs]
            dst, src = np.array(pairs, dtype=np.intp).T
            stack_plan.append(((dst,) + dst_index, (src,) + src_index))
    return tile_plan, stack_plan


def exchange_halos(
    decomp: Decomposition,
    fields: Sequence[np.ndarray],
    width: Optional[int] = None,
    wire_dtype=None,
) -> None:
    """Fill halo regions of every tile of one field, in place.

    ``fields[rank]`` is the tile-local array of rank ``rank`` (2-D
    ``(ny+2o, nx+2o)`` or 3-D ``(nz, ny+2o, nx+2o)``).  ``width`` can
    request a narrower exchange than the allocated halo (e.g. width-1
    exchanges in DS within width-3 halos).

    ``fields`` given as one array stacked on a leading rank axis (how
    the model state and the CG vectors are stored) is filled with one
    advanced-index copy per direction — four per exchange; a sequence
    of unrelated per-tile arrays is filled slice copy by slice copy.

    ``wire_dtype`` models a reduced-precision wire payload: every copied
    halo slab passes through that dtype before landing, exactly as if it
    had been packed at 4 bytes per element and upcast by the receiver
    (see :mod:`repro.precision`).  The pass-2 corner re-send of pass-1
    halo data is safe because the cast is idempotent (float32 values
    survive a float64 round trip bit-exactly).  ``None`` keeps the
    seed's cast-free copies.

    The copy schedules depend only on the decomposition and the width,
    so they are built once and cached on the decomposition — the CG
    solver calls this at every iteration, making the per-call slice
    arithmetic a measured hot path.
    """
    if len(fields) != decomp.n_ranks:
        raise ValueError(
            f"expected {decomp.n_ranks} tile arrays, got {len(fields)}"
        )
    w = decomp.olx if width is None else width
    plans = decomp.__dict__.setdefault("_exchange_plans", {})
    if w not in plans:
        plans[w] = _build_plans(decomp, w)
    tile_plan, stack_plan = plans[w]
    if wire_dtype is not None:
        wire_dtype = np.dtype(wire_dtype)
    if isinstance(fields, np.ndarray):
        for dst, src in stack_plan:
            slab = fields[src]
            fields[dst] = slab if wire_dtype is None else slab.astype(wire_dtype)
    elif wire_dtype is None:
        for dst, di, src, si in tile_plan:
            fields[dst][di] = fields[src][si]
    else:
        for dst, di, src, si in tile_plan:
            fields[dst][di] = fields[src][si].astype(wire_dtype)


class HaloExchanger:
    """Convenience binding of a decomposition for repeated exchanges.

    With a ``backend`` (tier name or :class:`repro.backend.CommBackend`)
    each exchange also accumulates its worst-rank communication cost in
    :attr:`elapsed` — the standalone-benchmark counterpart of the
    virtual time :class:`~repro.parallel.runtime.LockstepRuntime`
    charges; without one the exchanger stays a free data mover.
    """

    def __init__(
        self,
        decomp: Decomposition,
        backend=None,
        mixmode: bool = False,
        itemsize: int = 8,
    ) -> None:
        self.decomp = decomp
        self.count = 0
        if backend is not None:
            from repro.backend import resolve_backend

            backend = resolve_backend(backend)
        self.backend = backend
        self.mixmode = mixmode
        self.itemsize = itemsize
        #: Accumulated worst-rank exchange seconds (0.0 without backend).
        self.elapsed = 0.0

    def __call__(self, fields: Sequence[np.ndarray], width: Optional[int] = None) -> None:
        exchange_halos(self.decomp, fields, width)
        self.count += 1
        if self.backend is not None:
            nz = 1 if fields[0].ndim == 2 else fields[0].shape[0]
            self.elapsed += max(
                self.backend.exchange_time(
                    self.decomp.edge_bytes(
                        nz=nz, width=width, itemsize=self.itemsize, rank=r
                    ),
                    mixmode=self.mixmode,
                    n_ranks=self.decomp.n_ranks,
                )
                for r in range(self.decomp.n_ranks)
            )

    def gather_global(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """Assemble the global (interior-only) field from the tiles."""
        sample = fields[0]
        o = self.decomp.olx
        out = np.zeros(
            sample.shape[:-2] + (self.decomp.ny, self.decomp.nx), dtype=sample.dtype
        )
        for r, t in enumerate(self.decomp.tiles):
            out[..., t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx] = fields[r][
                ..., o : o + t.ny, o : o + t.nx
            ]
        return out

    def scatter_global(self, global_field: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Split a global field into tile-local arrays (halos unfilled)."""
        o = self.decomp.olx
        out = []
        for t in self.decomp.tiles:
            arr = np.zeros(
                global_field.shape[:-2] + t.shape2d, dtype=dtype or global_field.dtype
            )
            arr[..., o : o + t.ny, o : o + t.nx] = global_field[
                ..., t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx
            ]
            out.append(arr)
        return out
