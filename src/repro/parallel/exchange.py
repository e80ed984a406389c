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


def halo_slabs(decomp: Decomposition, w: int) -> tuple:
    """Per pass (x, then y) ``{side: (halo index at the neighbour on that
    side, strip index here)}`` of a width-``w`` exchange, indices into
    any tile (tiles are uniform): a rank's strip on side ``d`` lands in
    the opposite halo of its ``d`` neighbour.  Within a pass every copy
    reads interiors (or pass-1 halos) and writes halos, so they commute.
    """
    o, t = decomp.olx, decomp.tiles[0]
    if w < 0:
        # A negative width would flip the halo slices into interior
        # ranges and silently overwrite interior cells.
        raise ValueError(f"exchange width must be >= 0, got {w}")
    if w > o:
        raise ValueError(f"exchange width {w} exceeds halo {o}")
    if w == 0:
        return ()
    rows = slice(o, o + t.ny)
    cols = slice(o - w, o + t.nx + w)
    return (
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


def copy_plan(decomp: Decomposition, w: int) -> list:
    """The ``(dst_index, src_index)`` slice copies of a width-``w``
    exchange on the ``(py, px, ...)`` tile-grid view of a stack: per
    side of :func:`halo_slabs`, the tiles with a neighbour inside the
    grid at once, then the periodic wrap of the edge column (or row) of
    tiles — six copies at a periodic-x, wall-y tiling.  Cached on the
    decomposition (the CG solver exchanges at every iteration)."""
    plans = decomp.__dict__.setdefault("_exchange_plans", {})
    if w in plans:
        return plans[w]
    plan = []
    for slabs in halo_slabs(decomp, w):
        for side, (dst_index, src_index) in slabs.items():
            along_x = side in ("west", "east")
            n = decomp.px if along_x else decomp.py
            periodic = decomp.periodic_x if along_x else decomp.periodic_y
            copies = [(slice(0, n - 1), slice(1, n))] * (n > 1)
            copies += [(slice(n - 1, n), slice(0, 1))] * periodic
            lead = (slice(None),) * along_x
            for dst, src in copies:
                if side in ("east", "north"):  # strips travel up the grid
                    dst, src = src, dst
                plan.append((lead + (dst,) + dst_index, lead + (src,) + src_index))
    return plans.setdefault(w, plan)


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

    A field stacked on a leading rank axis (the model state, the CG
    buffers) is filled by the slice copies of :func:`copy_plan` on its
    tile-grid view; a sequence of tiles is stacked, filled and written
    back.

    ``wire_dtype`` models a reduced-precision wire payload: every copied
    slab passes through that dtype, as if packed at 4 bytes per element
    and upcast by the receiver (see :mod:`repro.precision`); the pass-2
    corner re-send of pass-1 halo data is safe because the cast is
    idempotent.  ``None`` keeps the copies cast-free.
    """
    if len(fields) != decomp.n_ranks:
        raise ValueError(
            f"expected {decomp.n_ranks} tile arrays, got {len(fields)}"
        )
    plan = copy_plan(decomp, decomp.olx if width is None else width)
    stack = fields if isinstance(fields, np.ndarray) else np.stack(fields)
    # splitting the rank axis in two is always a view, contiguous or not
    grid = stack.reshape((decomp.py, decomp.px) + stack.shape[1:])
    for dst, src in plan:
        grid[dst] = grid[src] if wire_dtype is None else grid[src].astype(wire_dtype)
    if stack is not fields:  # tiles given one by one: write them back
        for tile, filled in zip(fields, stack):
            tile[...] = filled


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
        return self.decomp.to_global(np.stack(fields))

    def scatter_global(self, global_field: np.ndarray) -> list[np.ndarray]:
        """Split a global field into tile-local arrays (halos unfilled)."""
        shape = global_field.shape[:-2] + self.decomp.tiles[0].shape2d
        stack = np.zeros((self.decomp.n_ranks,) + shape, global_field.dtype)
        view = self.decomp.global_view(stack)
        view[...] = global_field.reshape(view.shape)
        return list(stack)
