"""Flexible tiled domain decomposition (paper Fig. 5).

The global lateral grid of ``nx x ny`` columns is carved into a
``px x py`` array of tiles.  Tiles carry a halo (overlap) region of
width ``olx`` holding duplicate copies of neighbouring interiors, so
that a pass of stencil computation can proceed without communication
("overcomputation", Section 4).  Both decomposition styles of Fig. 5
are supported: long strips (``py == 1``) suited to vector memories, and
compact blocks suited to deep cache hierarchies.

Geometry conventions: x is longitude (periodic), y is latitude (walls),
and tile-local arrays are ``(ny + 2*olx, nx + 2*olx)`` for 2-D fields or
``(nz, ny + 2*olx, nx + 2*olx)`` for 3-D fields, C-order, y-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

#: Neighbour direction names, in the order edge sizes are reported.
DIRECTIONS = ("west", "east", "south", "north")


@dataclass(frozen=True)
class Tile:
    """One tile of the decomposition (immutable geometry)."""

    rank: int
    ix: int  # tile column index in the process grid
    iy: int  # tile row index
    x0: int  # global index of first interior column
    y0: int
    nx: int  # interior extent
    ny: int
    olx: int  # halo width

    @property
    def shape2d(self) -> tuple[int, int]:
        """Tile-local 2-D array shape including halos."""
        return (self.ny + 2 * self.olx, self.nx + 2 * self.olx)

    def shape3d(self, nz: int) -> tuple[int, int, int]:
        """Tile-local 3-D array shape including halos."""
        return (nz,) + self.shape2d

    @property
    def interior(self) -> tuple[slice, slice]:
        """Slices selecting the interior of a tile-local 2-D array."""
        o = self.olx
        return (slice(o, o + self.ny), slice(o, o + self.nx))

    def alloc2d(self, dtype=np.float64) -> np.ndarray:
        """Zeroed tile-local 2-D array including halos."""
        return np.zeros(self.shape2d, dtype=dtype)

    def alloc3d(self, nz: int) -> np.ndarray:
        """Zeroed tile-local 3-D array including halos."""
        return np.zeros(self.shape3d(nz))


class Decomposition:
    """A ``px x py`` tiling of an ``nx x ny`` global grid.

    Periodicity follows the climate-model convention: periodic in x
    (longitude), solid walls in y (latitude).
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        px: int,
        py: int,
        olx: int = 1,
        periodic_x: bool = True,
        periodic_y: bool = False,
    ) -> None:
        if px <= 0 or py <= 0:
            raise ValueError("process grid must be positive")
        if nx % px or ny % py:
            raise ValueError(
                f"grid {nx}x{ny} not divisible by process grid {px}x{py}"
            )
        if olx < 0:
            raise ValueError("halo width must be non-negative")
        tnx, tny = nx // px, ny // py
        if olx > tnx or olx > tny:
            raise ValueError(f"halo {olx} exceeds tile extent {tnx}x{tny}")
        self.nx, self.ny = nx, ny
        self.px, self.py = px, py
        self.olx = olx
        self.periodic_x = periodic_x
        self.periodic_y = periodic_y
        self.tiles = [
            Tile(
                rank=iy * px + ix,
                ix=ix,
                iy=iy,
                x0=ix * tnx,
                y0=iy * tny,
                nx=tnx,
                ny=tny,
                olx=olx,
            )
            for iy in range(py)
            for ix in range(px)
        ]

    # -- factories mirroring Fig. 5 -------------------------------------

    @classmethod
    def strips(cls, nx: int, ny: int, n: int, olx: int = 1, **kw) -> "Decomposition":
        """Long strips: ``n`` tiles across x only (vector-friendly)."""
        return cls(nx, ny, n, 1, olx, **kw)

    @classmethod
    def blocks(cls, nx: int, ny: int, px: int, py: int, **kw) -> "Decomposition":
        """Compact blocks (cache-friendly), one-point halos."""
        return cls(nx, ny, px, py, 1, **kw)

    # -- topology ---------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.px * self.py

    def tile(self, rank: int) -> Tile:
        """The tile owned by ``rank``."""
        return self.tiles[rank]

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles)

    def global_view(self, stack: np.ndarray) -> np.ndarray:
        """The interiors of a tile stack ``(n_ranks, ..., ny+2o, nx+2o)``
        as a writable view ``(..., py, tny, px, tnx)`` in global order:
        assign a global field reshaped to that shape to scatter it."""
        o, t = self.olx, self.tiles[0]
        tiles = stack.reshape((self.py, self.px) + stack.shape[1:])
        inner = tiles[..., o : o + t.ny, o : o + t.nx]
        return np.moveaxis(inner, (0, 1), (-4, -2))

    def window(self, width: int) -> tuple:
        """Index selecting, in every tile-local array, the interior plus
        its ``width`` innermost halo rings (``width <= olx``): the tiles
        of the same tiling with a ``width``-wide halo."""
        cut = slice(self.olx - width, width - self.olx or None)
        return (Ellipsis, cut, cut)

    def to_global(self, stack: np.ndarray) -> np.ndarray:
        """The global ``(..., ny, nx)`` field assembled (copied) from the
        interiors of a tile stack."""
        view = self.global_view(stack)
        out = np.empty(view.shape[:-4] + (self.ny, self.nx), dtype=stack.dtype)
        out.reshape(view.shape)[...] = view  # always a copy, also for one tile
        return out

    def neighbor(self, rank: int, direction: str) -> Optional[int]:
        """Rank of the neighbouring tile, or None at a wall."""
        t = self.tiles[rank]
        ix, iy = t.ix, t.iy
        if direction == "west":
            ix -= 1
        elif direction == "east":
            ix += 1
        elif direction == "south":
            iy -= 1
        elif direction == "north":
            iy += 1
        else:
            raise ValueError(f"unknown direction {direction!r}")
        if ix < 0 or ix >= self.px:
            if not self.periodic_x:
                return None
            ix %= self.px
        if iy < 0 or iy >= self.py:
            if not self.periodic_y:
                return None
            iy %= self.py
        return iy * self.px + ix

    def neighbors(self, rank: int) -> dict[str, Optional[int]]:
        """All four neighbour ranks of ``rank`` (None at walls)."""
        return {d: self.neighbor(rank, d) for d in DIRECTIONS}

    # -- communication volumes --------------------------------------------

    def edge_bytes(
        self,
        nz: int = 1,
        width: Optional[int] = None,
        itemsize: int = 8,
        rank: int = 0,
    ) -> list[int]:
        """Message size per neighbour direction for one field's exchange.

        ``width`` defaults to the full halo ``olx``.  West/east edges move
        ``width * tny * nz`` cells; south/north move ``width * tnx * nz``.
        These are *corner-free* volumes: the paper's measured Fig. 11
        exchange costs (1640/4573/115 us) are reproduced by the Arctic
        cost model exactly for corner-free strips, indicating the Hyades
        implementation transferred interior edge strips only (the
        functional fill in :mod:`repro.parallel.exchange` still brings
        corners up to date; their extra volume is below 20 % and
        evidently rode inside the measured costs).  Edges with no remote
        neighbour — walls, or a periodic wrap back onto the same rank —
        contribute zero network bytes.
        """
        w = self.olx if width is None else width
        t = self.tiles[rank]
        sizes = []
        for d in DIRECTIONS:
            nbr = self.neighbor(rank, d)
            if nbr is None or nbr == rank:
                sizes.append(0)
                continue
            if d in ("west", "east"):
                cells = w * t.ny * nz
            else:
                cells = w * t.nx * nz
            sizes.append(cells * itemsize)
        return sizes

    @cached_property
    def critical_rank(self) -> int:
        """The first rank with the largest halo volume — the tile on the
        exchange's critical path (an interior tile wherever one exists).

        :meth:`edge_bytes` is linear in ``nz * width * itemsize``, so the
        same rank is critical for every field shape and wire precision;
        tiles are uniform, so the volume is a sum of an x part and a y
        part, each largest at the first tile with two remote neighbours
        along its axis: tile 1 between walls, tile 0 otherwise.
        """
        ix = int(self.px > 2 and not self.periodic_x)
        iy = int(self.py > 2 and not self.periodic_y)
        return iy * self.px + ix


class RankMap:
    """Placement of decomposition ranks onto cluster nodes.

    The decomposition is pure geometry — rank ``r`` always owns tile
    ``r`` — but *which node runs rank r* may change over a run: when a
    node crashes, its rank is remapped onto a hot-spare node, or (when
    permitted) onto a surviving node that then hosts two ranks.  All
    node-addressed communication goes through :meth:`node_of` so the
    remap is one authoritative table.
    """

    def __init__(
        self,
        n_ranks: int,
        spares: tuple[int, ...] = (),
        allow_redistribute: bool = False,
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("need at least one rank")
        overlap = set(range(n_ranks)) & set(spares)
        if overlap:
            raise ValueError(
                f"spare nodes {sorted(overlap)} collide with the initial "
                f"rank->node identity placement of {n_ranks} ranks"
            )
        if len(set(spares)) != len(spares):
            raise ValueError("duplicate spare node ids")
        self.n_ranks = n_ranks
        self._node_of: list[int] = list(range(n_ranks))
        self.spares: list[int] = list(spares)
        self.allow_redistribute = allow_redistribute
        #: Nodes removed from service (crashed), in death order.
        self.retired: list[int] = []
        #: Remap history: ``(rank, old_node, new_node)``.
        self.remaps: list[tuple[int, int, int]] = []

    def node_of(self, rank: int) -> int:
        """The node currently hosting ``rank``."""
        return self._node_of[rank]

    def ranks_on(self, node: int) -> list[int]:
        """All ranks currently hosted by ``node``."""
        return [r for r, n in enumerate(self._node_of) if n == node]

    def nodes(self) -> list[int]:
        """Every node with a role: active hosts plus remaining spares."""
        return sorted(set(self._node_of) | set(self.spares))

    def retire_node(self, node: int) -> list[int]:
        """Take ``node`` out of service; returns the ranks it hosted.

        A dead spare is simply dropped from the pool.  The displaced
        ranks must then be replaced via :meth:`remap_rank`.
        """
        if node in self.retired:
            return []
        self.retired.append(node)
        if node in self.spares:
            self.spares.remove(node)
        return self.ranks_on(node)

    def remap_rank(self, rank: int) -> int:
        """Move ``rank`` onto a replacement node; returns the new node.

        Prefers the next hot spare; with the pool empty and
        ``allow_redistribute`` set, doubles the rank up on the surviving
        node hosting the fewest ranks.  Raises :class:`LookupError` when
        no replacement exists (callers turn this into a structured
        ``UnrecoverableError``).
        """
        old = self._node_of[rank]
        if old not in self.retired:
            raise ValueError(f"rank {rank}'s node {old} is still in service")
        if self.spares:
            new = self.spares.pop(0)
        elif self.allow_redistribute:
            survivors = [
                n
                for n in set(self._node_of)
                if n not in self.retired
            ]
            if not survivors:
                raise LookupError("no surviving nodes to redistribute onto")
            new = min(survivors, key=lambda n: (len(self.ranks_on(n)), n))
        else:
            raise LookupError(
                f"no spare node available to replace rank {rank} "
                f"(retired: {self.retired}, redistribution disabled)"
            )
        self._node_of[rank] = new
        self.remaps.append((rank, old, new))
        return new
