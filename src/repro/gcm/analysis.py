"""Scientific analysis of model output.

The diagnostics climate scientists actually compute from runs like the
paper's Fig. 9: the meridional overturning streamfunction, zonal means,
transports and an ideal-age tracer — the quantities a "personal
supercomputer for climate research" exists to produce.
"""

from __future__ import annotations


import numpy as np

from repro.gcm.timestepper import Model


def zonal_mean(model: Model, name: str) -> np.ndarray:
    """Zonal (x) mean of a 3-D field over wet cells: shape (nz, ny)."""
    field = model.state.to_global(name)
    # global wet mask from depth
    wet = _wet_mask(model)
    num = np.sum(np.where(wet, field, 0.0), axis=-1)
    den = np.sum(wet, axis=-1)
    with np.errstate(invalid="ignore"):
        return np.where(den > 0, num / np.maximum(den, 1), np.nan)


def _wet_mask(model: Model) -> np.ndarray:
    depth = model.grid.global_depth
    z_top = model.grid.z_top[:, None, None]
    return (-depth[None] < z_top - 1e-9) & (depth[None] > 0)


def overturning_streamfunction(model: Model) -> np.ndarray:
    """Meridional overturning streamfunction Psi(z_face, y) in Sverdrups.

    ``Psi[k, j]`` is the net northward volume transport above the top
    face of layer k across latitude row j: the zonally-integrated
    ``v * hFacS * drF * dxG`` accumulated from the surface downward.
    A positive cell means clockwise overturning (northward flow above,
    southward below) in the (y, z) plane.
    """
    v = model.state.to_global("v")  # (nz, ny, nx) at south faces
    nz, ny, nx = v.shape
    # face widths/fractions reassembled globally, at the grid's working
    # dtype (a float32 state is not promoted by the products below)
    hfs = model.grid.decomp.to_global(model.grid.hfac_s)
    dxg = model.grid.decomp.to_global(model.grid.dxg)
    transport = v * hfs * model.grid.drf[:, None, None] * dxg[None]  # m^3/s
    northward_per_layer = transport.sum(axis=-1)  # (nz, ny)
    # Psi at the top face of layer k = sum of layers above it
    psi = np.zeros((nz + 1, ny), dtype=northward_per_layer.dtype)
    psi[1:] = np.cumsum(northward_per_layer, axis=0)
    return psi / 1e6  # Sv


def barotropic_transport(model: Model) -> np.ndarray:
    """Depth-integrated zonal transport (m^2/s) at each column."""
    u = model.state.to_global("u")
    hfw = model.grid.decomp.to_global(model.grid.hfac_w)
    return np.sum(u * hfw * model.grid.drf[:, None, None], axis=0)


def load_balance_report(grid) -> dict:
    """Wet-cell load statistics per tile (paper Fig. 5 caption:
    "Connectivity between tiles can be tuned to reduce the overall
    computational load").

    Returns wet-cell counts per rank, the imbalance factor
    (max/mean — the slowdown a land-blind dense decomposition accepts
    versus perfect balance), and the fraction of compute spent on land
    if the kernel runs dense over every cell (as ours and the 1999
    Fortran code both do).
    """
    o = grid.decomp.olx
    wet = []
    total = []
    for r, t in enumerate(grid.decomp.tiles):
        sl = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
        hf = grid.hfac_c[r][sl]
        wet.append(int(np.count_nonzero(hf > 0)))
        total.append(hf.size)
    wet_arr = np.asarray(wet, dtype=float)
    mean = wet_arr.mean() if wet_arr.size else 0.0
    return {
        "wet_per_rank": wet,
        "cells_per_rank": total,
        "imbalance": float(wet_arr.max() / mean) if mean > 0 else float("inf"),
        "idle_fraction": float(1.0 - wet_arr.min() / max(wet_arr.max(), 1)),
        "land_compute_fraction": float(1.0 - wet_arr.sum() / sum(total)),
    }


class IdealAgeTracer:
    """Ideal-age: advected-diffused like salinity, ageing 1 s/s in the
    interior and reset to zero in the surface layer.

    Run it by *hijacking the model's tracer slot*: call :meth:`attach`
    once, then :meth:`update` after each model step.  Age in seconds.

    Attaching makes the tracer **passive**: the model's EOS is replaced
    by one whose tracer coefficient is zero (``beta = 0`` for the ocean,
    ``virtual_coeff = 0`` for the atmosphere), since an age of 10^5
    seconds read as salinity would be catastrophically dense.  Call
    :meth:`detach` to restore the original EOS.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self._attached = False
        self._saved_eos = None

    def attach(self) -> None:
        """Zero the tracer field, take it over as age, passivate the EOS."""
        import dataclasses

        from repro.gcm.eos import IdealGasEOS, LinearEOS

        for arr in self.model.state["tracer"]:
            arr[...] = 0.0
        eos = self.model.config.eos
        self._saved_eos = eos
        if isinstance(eos, LinearEOS):
            self.model.config.eos = dataclasses.replace(eos, beta=0.0)
        elif isinstance(eos, IdealGasEOS):
            self.model.config.eos = dataclasses.replace(eos, virtual_coeff=0.0)
        self._attached = True

    def detach(self) -> None:
        """Restore the model's original equation of state."""
        if self._saved_eos is not None:
            self.model.config.eos = self._saved_eos
        self._attached = False

    def update(self) -> None:
        """Apply the ageing source and the surface reset (call after
        each model step; advection/diffusion already happened inside)."""
        if not self._attached:
            raise RuntimeError("call attach() before update()")
        dt = self.model.config.dt
        for r in range(self.model.decomp.n_ranks):
            age = self.model.state["tracer"][r][self.model.window]
            mask = self.model.grid.mask_c[r]
            age += dt * mask  # everyone ages
            age[0] = 0.0  # surface layer is 'new water'
            np.clip(age, 0.0, None, out=age)

    def mean_age_profile(self) -> np.ndarray:
        """Horizontal-mean age per level (seconds)."""
        g = self.model.state.to_global("tracer")
        wet = _wet_mask(self.model)
        num = np.sum(np.where(wet, g, 0.0), axis=(1, 2))
        den = np.maximum(np.sum(wet, axis=(1, 2)), 1)
        return num / den
