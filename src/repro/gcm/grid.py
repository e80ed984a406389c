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
from typing import Optional, Sequence

import numpy as np

from repro.gcm.constants import EARTH, PhysicalConstants
from repro.parallel.exchange import HaloExchanger, exchange_halos
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

    def _lat_of_row(self, j_global: np.ndarray) -> np.ndarray:
        """Latitude (deg) of cell-center row ``j_global`` (may be halo)."""
        return self.params.lat0 + (j_global + 0.5) * self.params.dlat

    def _build_lateral_metrics(self) -> None:
        p = self.params
        a = self.c.radius
        dlam = np.deg2rad(p.dlon)
        dphi = np.deg2rad(p.dlat)
        o = self.decomp.olx

        self.dxc: list[np.ndarray] = []  # at u points
        self.dyc: list[np.ndarray] = []  # at v points
        self.dxg: list[np.ndarray] = []  # cell width at v-point latitude
        self.dyg: list[np.ndarray] = []  # meridional face length
        self.ra: list[np.ndarray] = []  # cell area
        self.fc: list[np.ndarray] = []  # Coriolis at centers
        self.lat_c: list[np.ndarray] = []  # latitude of centers, deg

        for t in self.decomp.tiles:
            jj = np.arange(-o, t.ny + o) + t.y0  # global row index per local row
            lat_c = self._lat_of_row(jj)
            # clamp halo rows beyond the walls to the wall latitude so
            # metrics stay finite; masks make their values irrelevant
            lat_c = np.clip(lat_c, p.lat0 + 0.5 * p.dlat, p.lat1 - 0.5 * p.dlat)
            phi_c = np.deg2rad(lat_c)
            lat_s = np.clip(
                p.lat0 + (jj) * p.dlat, p.lat0, p.lat1
            )  # southern edges
            phi_s = np.deg2rad(lat_s)
            lat_n = np.clip(p.lat0 + (jj + 1) * p.dlat, p.lat0, p.lat1)
            phi_n = np.deg2rad(lat_n)

            shape = t.shape2d
            ones = np.ones(shape, dtype=self.dtype)

            def col(v):
                return np.broadcast_to(
                    np.asarray(v, dtype=self.dtype)[:, None], shape
                ).copy()

            self.lat_c.append(col(lat_c))
            self.dxc.append(col(a * np.cos(phi_c) * dlam))
            self.dyc.append(ones * (a * dphi))
            self.dxg.append(col(a * np.cos(phi_s) * dlam))
            self.dyg.append(ones * (a * dphi))
            # Halo rows beyond the walls have phi_n == phi_s after
            # clamping; floor their (physically meaningless) area so
            # divisions stay finite — masks zero any contribution.
            area = a * a * dlam * (np.sin(phi_n) - np.sin(phi_s))
            area = np.maximum(area, a * a * dlam * dphi * 1e-6)
            self.ra.append(col(area))
            self.fc.append(col(self.c.coriolis(phi_c)))

        # areas/metrics must be identical in overlapping halos: they are
        # functions of the global row only, so no exchange is needed.

    def _build_hfacs(self) -> None:
        p = self.params
        hx = HaloExchanger(self.decomp)
        # global hFacC
        depth = self.global_depth
        nz, ny, nx = self.nz, p.ny, p.nx
        z_top = self.z_top[:, None, None]
        drf = self.drf[:, None, None]
        # open fraction of layer k: how much of [z_bot, z_top] is above -depth
        open_frac = np.clip((z_top - (-depth[None, :, :])) / drf, 0.0, 1.0)
        # apply minimum partial cell: fractions below hfac_min/2 close,
        # others are floored at hfac_min (MITgcm convention)
        hf = np.where(open_frac < 0.5 * p.hfac_min, 0.0, np.maximum(open_frac, p.hfac_min))
        hf = np.where(open_frac >= 1.0, 1.0, hf)

        self.hfac_c = hx.scatter_global(hf)
        exchange_halos(self.decomp, self.hfac_c)
        self.hfac_w: list[np.ndarray] = []
        self.hfac_s: list[np.ndarray] = []
        self.mask_c: list[np.ndarray] = []
        self.depth_c: list[np.ndarray] = []  # total open column depth at centers

        for r, t in enumerate(self.decomp.tiles):
            c = self.hfac_c[r]
            w = np.minimum(c, np.roll(c, 1, axis=-1))
            s = np.minimum(c, np.roll(c, 1, axis=-2))
            # wall: zero the southernmost physical face and everything
            # rolled across the tile's y edge is halo anyway
            o = self.decomp.olx
            if self.decomp.neighbor(r, "south") is None:
                s[:, : o + 1, :] = 0.0
            if self.decomp.neighbor(r, "north") is None:
                s[:, o + t.ny :, :] = 0.0
            self.hfac_w.append(w)
            self.hfac_s.append(s)
            self.mask_c.append((c > 0).astype(self.dtype))
            self.depth_c.append(np.sum(c * self.drf[:, None, None], axis=0))

    # -- convenience -------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.decomp.n_ranks

    def cell_volumes(self, rank: int) -> np.ndarray:
        """Open volume of each cell (nz, J, I)."""
        return self.hfac_c[rank] * self.drf[:, None, None] * self.ra[rank][None]

    def total_wet_cells(self) -> int:
        """Number of open (wet) interior cells over the whole domain."""
        total = 0
        for r, t in enumerate(self.decomp.tiles):
            o = self.decomp.olx
            total += int(np.count_nonzero(self.hfac_c[r][:, o : o + t.ny, o : o + t.nx] > 0))
        return total

    def min_dx(self) -> float:
        """Smallest lateral spacing (CFL-relevant)."""
        o = self.decomp.olx
        vals = []
        for r, t in enumerate(self.decomp.tiles):
            vals.append(float(self.dxc[r][o : o + t.ny, o : o + t.nx].min()))
        return min(min(vals), float(self.dyc[0].min()))
