"""Spherical C-grid geometry with finite-volume metrics.

The lateral grid is longitude-latitude (periodic in x, walls in y) on an
Arakawa C-grid: tracers/pressure at cell centers, u at west faces, v at
south faces.  Finite-volume metrics follow the MITgcm conventions:

* ``dxC``/``dyC`` — distances between adjacent cell centers (at u/v points),
* ``dxG``/``dyG`` — face lengths through which meridional/zonal fluxes pass,
* ``rA`` — exact spherical cell area ``a^2 dlambda (sin phiN - sin phiS)``,
* ``drF`` — vertical layer thicknesses,
* ``hFacC/W/S`` — open fractions of cells/faces ("shaved cells", ref [1]),
  derived from a depth field so volumes sculpt to irregular geometry
  (paper Fig. 4).

All metric arrays are tile-local with halos, so per-tile kernels need no
special casing at tile edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.gcm.constants import EARTH, PhysicalConstants
from repro.gcm.operators import xm, ym
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition


@dataclass(frozen=True)
class GridParams:
    """Global grid shape and extent."""

    nx: int = 128
    ny: int = 64
    nz: int = 10
    lat0: float = -80.0  # southern wall, degrees
    lat1: float = 80.0
    lon0: float = 0.0
    lon1: float = 360.0
    total_depth: float = 4000.0  # m (ocean) or scale height (atmos isomorph)
    drf: Optional[Sequence[float]] = None  # layer thicknesses; default uniform
    hfac_min: float = 0.1  # smallest allowed partial-cell fraction
    constants: PhysicalConstants = field(default_factory=lambda: EARTH)

    @property
    def dlon(self) -> float:
        return (self.lon1 - self.lon0) / self.nx

    @property
    def dlat(self) -> float:
        return (self.lat1 - self.lat0) / self.ny

    def layer_thicknesses(self) -> np.ndarray:
        """Vertical layer thicknesses drF (validated), meters."""
        if self.drf is not None:
            arr = np.asarray(self.drf, dtype=float)
            if arr.shape != (self.nz,):
                raise ValueError(f"drf must have {self.nz} entries")
            if np.any(arr <= 0):
                raise ValueError("layer thicknesses must be positive")
            return arr
        return np.full(self.nz, self.total_depth / self.nz)


class Grid:
    """Tile-local metric arrays for one decomposition.

    Every metric and mask is one array stacked on a leading rank axis
    (tiles are uniform): ``(n_ranks, J, I)`` for lateral metrics,
    ``(n_ranks, nz, J, I)`` for the hFacs.  ``grid.x[rank]`` is rank
    ``rank``'s tile-local view; ``grid.x[a:b]`` a batch of tiles.

    ``depth`` is the global 2-D fluid depth in meters (0 marks land); by
    default the full-depth ocean/atmosphere column everywhere.
    """

    def __init__(
        self,
        params: GridParams,
        decomp: Decomposition,
        depth: Optional[np.ndarray] = None,
        dtype=np.float64,
    ) -> None:
        if (params.nx, params.ny) != (decomp.nx, decomp.ny):
            raise ValueError("grid extent must match decomposition extent")
        self.params = params
        self.decomp = decomp
        self.c = params.constants
        self.nz = params.nz
        #: Working dtype of the metric and mask arrays (lateral metrics,
        #: hfacs, drf/z columns).  Kernels multiply state by these every
        #: step, so a float32 state is only honest if the metrics match
        #: (NumPy would promote the product back to float64 otherwise).
        self.dtype = np.dtype(dtype)
        self.drf = params.layer_thicknesses().astype(self.dtype)
        # z at layer centers (negative downward, surface at 0); derived
        # from the float64 thicknesses, then stored at the working dtype
        z_faces = np.concatenate(
            [[0.0], -np.cumsum(params.layer_thicknesses())]
        ).astype(self.dtype)
        self.z_top = z_faces[:-1]
        self.z_bot = z_faces[1:]
        self.z_center = 0.5 * (self.z_top + self.z_bot)

        if depth is None:
            depth = np.full((params.ny, params.nx), params.total_depth)
        if depth.shape != (params.ny, params.nx):
            raise ValueError(f"depth must be {(params.ny, params.nx)}, got {depth.shape}")
        self.global_depth = np.asarray(depth, dtype=self.dtype)

        self._build_lateral_metrics()
        self._build_hfacs()

    # ------------------------------------------------------------------

    def _build_lateral_metrics(self) -> None:
        p = self.params
        a = self.c.radius
        dlam = np.deg2rad(p.dlon)
        dphi = np.deg2rad(p.dlat)
        o, tiles = self.decomp.olx, self.decomp.tiles
        shape = (len(tiles),) + tiles[0].shape2d

        # global row index of every local row of every tile: (T, J)
        jj = np.arange(-o, tiles[0].ny + o) + np.array([t.y0 for t in tiles])[:, None]
        lat_c = p.lat0 + (jj + 0.5) * p.dlat  # cell-center latitude, deg
        # clamp halo rows beyond the walls to the wall latitude so
        # metrics stay finite; masks make their values irrelevant
        lat_c = np.clip(lat_c, p.lat0 + 0.5 * p.dlat, p.lat1 - 0.5 * p.dlat)
        phi_c = np.deg2rad(lat_c)
        phi_s = np.deg2rad(np.clip(p.lat0 + jj * p.dlat, p.lat0, p.lat1))  # southern edges
        phi_n = np.deg2rad(np.clip(p.lat0 + (jj + 1) * p.dlat, p.lat0, p.lat1))

        def col(v):
            return np.broadcast_to(
                np.asarray(v, dtype=self.dtype)[:, :, None], shape
            ).copy()

        self.lat_c = col(lat_c)  # latitude of centers, deg
        self.dxc = col(a * np.cos(phi_c) * dlam)  # at u points
        # (a * dphi is a NumPy float64 scalar, which is not weakly typed:
        # dyc/dyg are float64 even on a float32 grid, and the committed
        # precision artefacts pin the arithmetic that follows from it)
        self.dyc = np.ones(shape, dtype=self.dtype) * (a * dphi)  # at v points
        self.dxg = col(a * np.cos(phi_s) * dlam)  # cell width at v-point latitude
        self.dyg = self.dyc.copy()  # meridional face length
        # Halo rows beyond the walls have phi_n == phi_s after
        # clamping; floor their (physically meaningless) area so
        # divisions stay finite — masks zero any contribution.
        area = a * a * dlam * (np.sin(phi_n) - np.sin(phi_s))
        self.ra = col(np.maximum(area, a * a * dlam * dphi * 1e-6))  # cell area
        self.fc = col(self.c.coriolis(phi_c))  # Coriolis at centers

        # areas/metrics must be identical in overlapping halos: they are
        # functions of the global row only, so no exchange is needed.

    def _build_hfacs(self) -> None:
        p = self.params
        decomp, o = self.decomp, self.decomp.olx
        depth = self.global_depth
        z_top = self.z_top[:, None, None]
        drf = self.drf[:, None, None]
        # open fraction of layer k: how much of [z_bot, z_top] is above -depth
        open_frac = np.clip((z_top - (-depth[None, :, :])) / drf, 0.0, 1.0)
        # apply minimum partial cell: fractions below hfac_min/2 close,
        # others are floored at hfac_min (MITgcm convention)
        hf = np.where(open_frac < 0.5 * p.hfac_min, 0.0, np.maximum(open_frac, p.hfac_min))
        hf = np.where(open_frac >= 1.0, 1.0, hf)

        t = decomp.tiles[0]
        c = np.zeros((decomp.n_ranks,) + t.shape3d(self.nz), dtype=hf.dtype)
        decomp.global_view(c)[...] = hf.reshape(self.nz, decomp.py, t.ny, decomp.px, t.nx)
        exchange_halos(decomp, c)
        self.hfac_c = c
        self.hfac_w = np.minimum(c, np.roll(c, 1, axis=-1))
        s = self.hfac_s = np.minimum(c, np.roll(c, 1, axis=-2))
        # wall: zero the southernmost physical face and everything
        # rolled across the tile's y edge is halo anyway
        for d, rows in (("south", slice(None, o + 1)), ("north", slice(o + t.ny, None))):
            wall = [r for r in range(decomp.n_ranks) if decomp.neighbor(r, d) is None]
            s[np.array(wall, dtype=np.intp), :, rows, :] = 0.0
        #: Open-cell mask (bool): multiplies like the 0/1 float it stands for.
        self.mask_c = c > 0
        self.depth_c = np.sum(c * drf, axis=-3)  # total open column depth at centers

    # -- convenience -------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.decomp.n_ranks

    @cached_property
    def geometry(self) -> "StepGeometry":
        """The step kernels' static factors, built on first use (the
        model touches it at build; a DS-only grid never pays for it)."""
        return StepGeometry(self)

    def cell_volumes(self, rank) -> np.ndarray:
        """Open volume of each cell, ``(nz, J, I)`` per tile."""
        return self.hfac_c[rank] * self.drf[:, None, None] * self.ra[rank][..., None, :, :]

    def total_wet_cells(self) -> int:
        """Number of open (wet) interior cells over the whole domain."""
        return int(np.count_nonzero(self.decomp.global_view(self.mask_c)))

    def min_dx(self) -> float:
        """Smallest lateral spacing (CFL-relevant)."""
        return min(float(self.decomp.global_view(self.dxc).min()), float(self.dyc.min()))


class StepGeometry:
    """Everything the PS/DS kernels derive from the grid alone,
    evaluated once with the expression (and association) the kernels
    used to evaluate per call, so results stay bit-identical.

    Every attribute is stacked on the leading rank axis and already
    carries the level axis it broadcasts against: ``geo.x[rank]`` is
    ``(1 or nz, J, I)`` for one tile and ``(B, 1 or nz, J, I)`` for a
    slice of tiles.
    """

    def __init__(self, grid: Grid) -> None:
        drf = grid.drf[:, None, None]
        self.dxc, self.dyc, self.dxg, self.dyg, self.ra, self.fc = (
            a[:, None] for a in (grid.dxc, grid.dyc, grid.dxg, grid.dyg, grid.ra, grid.fc)
        )
        self.open_w = grid.hfac_w > 0
        self.open_s = grid.hfac_s > 0
        self.dy_dx = self.dyg / self.dxc
        self.dx_dy = self.dxg / self.dyc
        self.dxc2 = self.dxc**2
        self.dyc2 = self.dyc**2
        self.tan_lat = np.tan(np.deg2rad(grid.lat_c))[:, None]
        self.f_u = 0.5 * (self.fc + xm(self.fc))
        self.f_v = 0.5 * (self.fc + ym(self.fc))
        #: center-to-center layer spacing, ``(nz-1, 1, 1)``
        self.drc = (0.5 * (grid.drf[:-1] + grid.drf[1:]))[:, None, None]
        #: top faces with an open cell on both sides (the lid, k = 0, is closed)
        self.open_face = np.zeros_like(grid.mask_c)
        self.open_face[:, 1:] = grid.mask_c[:, :-1] * grid.mask_c[:, 1:]
        # open volumes of tracer, u and v cells: the mask and the
        # divide-safe divisor of every flux divergence
        self.wet_c, self.vol_c = _wet_volume(grid.hfac_c * drf * self.ra)
        self.wet_u, self.vol_u = _wet_volume(
            grid.hfac_w * drf * 0.5 * (self.ra + xm(self.ra))
        )
        self.wet_v, self.vol_v = _wet_volume(
            grid.hfac_s * drf * 0.5 * (self.ra + ym(self.ra))
        )


def _wet_volume(vol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    wet = vol > 0
    return wet, np.where(wet, vol, 1.0)
