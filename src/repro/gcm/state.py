"""Model state: tile-stacked prognostic and diagnostic fields.

C-grid staggering: ``u`` at west faces, ``v`` at south faces, ``w`` at
top faces (diagnosed), tracers (``theta`` and ``salt``/``q``) and the
hydrostatic pressure ``phy`` at cell centers, the surface pressure
``ps`` a 2-D center field.  ``gu/gv/gtheta/gtracer`` hold the current
G-terms and ``*_prev`` the previous step's for the Adams-Bashforth-2
extrapolation (Fig. 6: time levels n, n-1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition


#: 3-D fields carried per tile.
FIELDS_3D = (
    "u",
    "v",
    "w",
    "theta",
    "tracer",
    "phy",
    "gu",
    "gv",
    "gtheta",
    "gtracer",
    "gw",
    "gu_prev",
    "gv_prev",
    "gtheta_prev",
    "gtracer_prev",
    "gw_prev",
)
#: 2-D fields carried per tile.
FIELDS_2D = ("ps",)


@dataclass
class ModelState:
    """All field arrays plus step bookkeeping.

    Each field is one array stacked on a leading rank axis (tiles are
    uniform): ``state[name][rank]`` is rank ``rank``'s tile-local view,
    ``state[name][a:b]`` a batch of tiles for the step kernels.  Tiles
    carry the exchanged halo of ``decomp``, however few of its rings the
    step computes.
    """

    decomp: Decomposition
    fields3d: Dict[str, np.ndarray] = field(default_factory=dict)
    fields2d: Dict[str, np.ndarray] = field(default_factory=dict)
    time: float = 0.0
    step_count: int = 0

    @classmethod
    def zeros(cls, decomp: Decomposition, nz: int, dtypes=None) -> "ModelState":
        """Allocate all fields of ``nz`` levels on ``decomp``'s tiles;
        ``dtypes`` (name -> dtype, e.g. from
        :meth:`repro.precision.PrecisionConfig.state_dtypes`) overrides
        the float64 default per field."""
        st = cls(decomp=decomp)
        dtypes = dtypes or {}
        tiles = decomp.tiles
        shape2d = (len(tiles),) + tiles[0].shape2d
        shape3d = (len(tiles),) + tiles[0].shape3d(nz)
        for name in FIELDS_3D:
            st.fields3d[name] = np.zeros(shape3d, dtype=dtypes.get(name, np.float64))
        for name in FIELDS_2D:
            st.fields2d[name] = np.zeros(shape2d, dtype=dtypes.get(name, np.float64))
        return st

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.fields3d:
            return self.fields3d[name]
        if name in self.fields2d:
            return self.fields2d[name]
        raise KeyError(name)

    def swap_g_terms(self) -> None:
        """Rotate G arrays: current becomes previous (AB2 bookkeeping)."""
        for base in ("gu", "gv", "gtheta", "gtracer", "gw"):
            self.fields3d[base], self.fields3d[base + "_prev"] = (
                self.fields3d[base + "_prev"],
                self.fields3d[base],
            )

    def set_from_global(self, name: str, global_field: np.ndarray) -> None:
        """Initialize a field from a global array (interior + halo fill)."""
        decomp = self.decomp
        target = self[name]
        target[...] = 0.0
        view = decomp.global_view(target)
        view[...] = np.reshape(global_field, view.shape)
        exchange_halos(decomp, target)

    def to_global(self, name: str) -> np.ndarray:
        """Assemble a field's interiors into one global array."""
        return self.decomp.to_global(self[name])


def model_digest(model) -> str:
    """Bit-exact digest of a model's complete prognostic state.

    CRC-32 over every global field's bytes plus the step bookkeeping —
    two runs agree on the digest iff their states are bitwise identical,
    the service's completion contract under chaos and the cross-validation
    gate's bit-exactness assertion.
    """
    crc = 0
    for name in FIELDS_3D + FIELDS_2D:
        arr = np.ascontiguousarray(model.state.to_global(name))
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    crc = zlib.crc32(repr(model.state.time).encode(), crc)
    crc = zlib.crc32(repr(model.state.step_count).encode(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"
