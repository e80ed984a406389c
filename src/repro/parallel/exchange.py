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

    Tiles are uniform, so every copy of one tile side has the same
    slices and differs only in the ranks it joins: a rank's strip on
    side ``d`` lands in the opposite halo of its ``d`` neighbour.  Two
    spellings of the same schedule come back: ``tile_plan``, per pass
    (x, then y) one ``(dst_rank, dst_index, src_rank, src_index)`` slice
    copy per strip for a sequence of tiles, ordered by side and then by
    sending rank, and ``stack_plan``, one ``(dst_index, src_index)``
    advanced-index copy per side (the ranks lead the index) for a
    stacked field.  Executing either in order reproduces the two-pass
    fill exactly (x first over interior rows, then y over the full width
    including fresh x halos); within a pass every copy reads interiors
    (or pass-1 halos) and writes halos, so the copies of a pass commute.
    """
    o, t = decomp.olx, decomp.tiles[0]
    if w < 0:
        # A negative width would flip the halo slices into interior
        # ranges and silently overwrite interior cells.
        raise ValueError(f"exchange width must be >= 0, got {w}")
    if w > o:
        raise ValueError(f"exchange width {w} exceeds halo {o}")
    if w == 0:
        return [[], []], []
    rows = slice(o, o + t.ny)
    cols = slice(o - w, o + t.nx + w)
    # side -> (halo index at the neighbour on that side, strip index here)
    passes = (
        # Pass 1: x-direction (west/east), interior rows only.
        {"west": ((Ellipsis, rows, slice(o + t.nx, o + t.nx + w)),
                  (Ellipsis, rows, slice(o, o + w))),
         "east": ((Ellipsis, rows, slice(o - w, o)),
                  (Ellipsis, rows, slice(o + t.nx - w, o + t.nx)))},
        # Pass 2: y-direction (south/north), full x extent including x halos.
        {"south": ((Ellipsis, slice(o + t.ny, o + t.ny + w), cols),
                   (Ellipsis, slice(o, o + w), cols)),
         "north": ((Ellipsis, slice(o - w, o), cols),
                   (Ellipsis, slice(o + t.ny - w, o + t.ny), cols))},
    )
    tile_plan, stack_plan = [[], []], []
    for copies, slabs in zip(tile_plan, passes):
        for side, (dst_index, src_index) in slabs.items():
            pairs = [(decomp.neighbor(r, side), r) for r in range(decomp.n_ranks)]
            pairs = [(n, r) for n, r in pairs if n is not None]
            if pairs:
                copies += [(n, dst_index, r, src_index) for n, r in pairs]
                dst, src = np.array(pairs, dtype=np.intp).T
                stack_plan.append(((dst,) + dst_index, (src,) + src_index))
    return tile_plan, stack_plan


def copy_plans(decomp: Decomposition, w: int) -> tuple[list, list]:
    """:func:`_build_plans` of ``(decomp, w)``, built once and cached on
    the decomposition (the CG solver exchanges at every iteration, so
    the per-call slice arithmetic is a measured hot path)."""
    plans = decomp.__dict__.setdefault("_exchange_plans", {})
    if w not in plans:
        plans[w] = _build_plans(decomp, w)
    return plans[w]


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

    The copy schedules depend only on the decomposition and the width
    (:func:`copy_plans`).
    """
    if len(fields) != decomp.n_ranks:
        raise ValueError(
            f"expected {decomp.n_ranks} tile arrays, got {len(fields)}"
        )
    tile_plan, stack_plan = copy_plans(decomp, decomp.olx if width is None else width)
    if wire_dtype is not None:
        wire_dtype = np.dtype(wire_dtype)
    if isinstance(fields, np.ndarray):
        for dst, src in stack_plan:
            slab = fields[src]
            fields[dst] = slab if wire_dtype is None else slab.astype(wire_dtype)
    elif wire_dtype is None:
        for copies in tile_plan:
            for dst, di, src, si in copies:
                fields[dst][di] = fields[src][si]
    else:
        for copies in tile_plan:
            for dst, di, src, si in copies:
                fields[dst][di] = fields[src][si].astype(wire_dtype)


class HaloExchanger:
    """A decomposition bound for repeated exchanges, gathers and scatters.

    A pure data mover: virtual time for an exchange is charged only by
    :class:`~repro.parallel.runtime.LockstepRuntime`.
    """

    def __init__(self, decomp: Decomposition) -> None:
        self.decomp = decomp

    def __call__(self, fields: Sequence[np.ndarray], width: Optional[int] = None) -> None:
        exchange_halos(self.decomp, fields, width)

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

    def scatter_global(self, global_field: np.ndarray) -> list[np.ndarray]:
        """Split a global field into tile-local arrays (halos unfilled)."""
        o = self.decomp.olx
        out = []
        for t in self.decomp.tiles:
            arr = np.zeros(global_field.shape[:-2] + t.shape2d, global_field.dtype)
            arr[..., o : o + t.ny, o : o + t.nx] = global_field[
                ..., t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx
            ]
            out.append(arr)
        return out
