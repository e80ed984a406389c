"""Forcing / parametrization packages for the two isomorphs.

The paper's experiments use an "intermediate complexity atmospheric
physics package" (Molteni's 5-level parametrizations, refs [12, 14]),
which is not publicly archived; as the closest synthetic equivalent we
implement a Held-Suarez-style package with the same *structure* — zonally
symmetric radiative relaxation, boundary-layer Rayleigh drag, dry
convective adjustment and a single-moisture condensation scheme — i.e.
parametrized tendencies entering the G terms exactly where Molteni's
would (see DESIGN.md, substitutions).

Array convention: level ``k = 0`` is the top of the model column and
``k = nz-1`` the surface-adjacent level for the atmosphere; the ocean
has ``k = 0`` at the sea surface.  Both isomorphs therefore integrate
the hydrostatic relation from ``k = 0`` downward in array space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gcm.constants import EARTH
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter

DAY = 86400.0


def _adjust_column_pairs(theta: np.ndarray, grid: Grid, max_sweeps: int) -> int:
    """Mix adjacent statically unstable layers to a stable fixed point.

    Stability convention (both isomorphs, see module docstring): stable
    when theta is non-increasing with array index k.  Mass(thickness)-
    weighted pair mixing preserves the column heat content exactly;
    sweeps repeat until no pair mixes (a fully unstable column needs
    several cascaded sweeps).  On a batch of tiles the sweeps run until
    no tile mixes — a sweep over an already stable tile changes nothing.
    Every column of ``theta`` (tiles on ``grid``'s decomposition) mixes;
    the returned mixed-pair count is the interiors' only, so a column
    counts once however many halos hold a copy of it.
    """
    drf, interior = grid.drf, (Ellipsis,) + grid.decomp.tiles[0].interior
    tol = 1e-10
    nz = theta.shape[-3]
    if not np.any(theta[..., :-1, :, :] < theta[..., 1:, :, :] - tol):
        return 0  # stable everywhere: a sweep would find no pair to mix
    mixed_total = 0
    for _ in range(max_sweeps):
        mixed = False
        for k in range(nz - 2, -1, -1):
            upper, lower = theta[..., k, :, :], theta[..., k + 1, :, :]
            unstable = upper < lower - tol
            if np.any(unstable):
                w1, w2 = drf[k], drf[k + 1]
                mean = (w1 * upper + w2 * lower) / (w1 + w2)
                upper[...] = np.where(unstable, mean, upper)
                lower[...] = np.where(unstable, mean, lower)
                mixed = True
                mixed_total += int(np.count_nonzero(unstable[interior]))
        if not mixed:
            break
    return mixed_total


@dataclass
class AtmospherePhysics:
    """Intermediate-complexity atmospheric parametrizations.

    Tendencies (per Section 3.1, these are part of the forcing and
    dissipation contributions to G):

    * Newtonian relaxation of theta toward a zonally symmetric
      radiative-equilibrium profile on timescale ``tau_rad``;
    * Rayleigh drag on the lowest ``n_drag_levels`` levels (``tau_fric``);
    * surface sensible-heat and evaporative fluxes from the SST (the
      coupling fields), entering the lowest level;
    * large-scale condensation: moisture above saturation rains out,
      releasing latent heat;
    * dry convective adjustment (applied after the step).
    """

    tau_rad: float = 40.0 * DAY
    tau_fric: float = 1.0 * DAY
    n_drag_levels: int = 2
    dtheta_y: float = 60.0  # equator-pole equilibrium contrast, K
    dtheta_z: float = 30.0  # vertical equilibrium contrast, K
    theta_ref: float = 300.0
    # surface exchange coefficients (bulk formulae)
    c_sens: float = 1.0 / (3.0 * DAY)  # 1/s toward SST
    c_evap: float = 4.0e-8  # kg/kg per second per K of SST excess
    q_sat0: float = 0.02  # saturation humidity at theta_ref
    q_sat_slope: float = 7.0e-4  # d(qsat)/dK
    latent_factor: float = 2500.0  # K per unit q condensed (L/cp)
    condense_timescale: float = 4.0 * 3600.0
    #: Seasonal cycle: the latitude of maximum heating migrates
    #: sinusoidally by ``seasonal_shift`` (as sin of latitude) over
    #: ``year_length`` seconds; 0 disables the cycle (perpetual equinox).
    seasonal_shift: float = 0.0
    year_length: float = 360.0 * DAY
    #: Model time (seconds) used by the seasonal cycle; the time stepper
    #: refreshes it each step through :meth:`set_time`.
    current_time: float = 0.0

    def set_time(self, t: float) -> None:
        """Update the physics clock (called by the model each step)."""
        self.current_time = t

    def heating_center(self) -> float:
        """sin(latitude) of maximum radiative heating right now."""
        if self.seasonal_shift == 0.0:
            return 0.0
        phase = 2.0 * np.pi * self.current_time / self.year_length
        return self.seasonal_shift * np.sin(phase)

    def theta_eq(self, lat_deg: np.ndarray, k: int, nz: int) -> np.ndarray:
        """Radiative-equilibrium theta at level k (k = nz-1 is surface).

        With a seasonal cycle enabled the meridional profile's maximum
        migrates between the hemispheres (the solstice/equinox march).
        """
        return self._theta_eq_surface(lat_deg) + self._theta_eq_lift(k, nz)

    def _theta_eq_surface(self, lat_deg: np.ndarray) -> np.ndarray:
        phi = np.deg2rad(lat_deg)
        center = self.heating_center()
        return self.theta_ref - self.dtheta_y * ((np.sin(phi) - center) ** 2)

    def _theta_eq_lift(self, k: int, nz: int) -> float:
        height_frac = (nz - 1 - k) / max(nz - 1, 1)  # 0 at surface, 1 at top
        return self.dtheta_z * height_frac

    def q_sat(self, theta: np.ndarray) -> np.ndarray:
        """Saturation specific humidity at potential temperature theta."""
        return np.maximum(self.q_sat0 + self.q_sat_slope * (theta - self.theta_ref), 1e-6)

    def apply_tendencies(
        self,
        rank,
        grid: Grid,
        u: np.ndarray,
        v: np.ndarray,
        theta: np.ndarray,
        q: np.ndarray,
        gu: np.ndarray,
        gv: np.ndarray,
        gtheta: np.ndarray,
        gq: np.ndarray,
        flops: FlopCounter,
        sst: Optional[np.ndarray] = None,
    ) -> None:
        """Add the package's tendencies to the G arrays for one tile
        (or for the batch of tiles ``rank`` slices)."""
        nz = theta.shape[-3]
        # Newtonian cooling (4 flops/cell); the level lifts join the
        # surface profile as the Python floats they are (no promotion)
        surface = self._theta_eq_surface(grid.lat_c[rank])[..., None, :, :]
        lift = np.array([self._theta_eq_lift(k, nz) for k in range(nz)], dtype=surface.dtype)
        gtheta += (surface + lift[:, None, None] - theta) / self.tau_rad
        # Rayleigh drag near the surface (4 flops/cell on drag levels)
        for k in range(nz - self.n_drag_levels, nz):
            sigma = (k - (nz - 1 - self.n_drag_levels)) / max(self.n_drag_levels, 1)
            gu[..., k, :, :] += -u[..., k, :, :] * sigma / self.tau_fric
            gv[..., k, :, :] += -v[..., k, :, :] * sigma / self.tau_fric
        # Surface fluxes from the SST (coupling field)
        if sst is not None:
            excess = sst - theta[..., -1, :, :]
            gtheta[..., -1, :, :] += self.c_sens * excess
            gq[..., -1, :, :] += self.c_evap * np.maximum(excess + 5.0, 0.0)
        # Large-scale condensation with latent heating
        qs = self.q_sat(theta)
        excess = np.maximum(q - qs, 0.0)
        gq -= excess / self.condense_timescale
        gtheta += self.latent_factor * excess / self.condense_timescale
        flops.add("atmos_physics", 22 * theta.size)

    def convective_adjustment(
        self, theta: np.ndarray, grid: Grid, rank, flops: FlopCounter
    ) -> int:
        """Dry adjustment: level k sits above level k+1 (atmosphere
        convention), so the column is unstable where theta[k] < theta[k+1];
        unstable pairs are mass-weighted-mixed to a stable fixed point."""
        mixed = _adjust_column_pairs(theta, grid, max_sweeps=100)
        flops.add("convective_adjustment", 6 * theta.size)
        return mixed

    def surface_level(self, nz: int) -> int:
        """Array index of the surface-adjacent level (atmos: bottom of arrays)."""
        return nz - 1


@dataclass
class OceanForcing:
    """Surface forcing of the ocean isomorph.

    * zonal wind stress: either an idealized two-gyre/westerly profile
      or the coupling field from the atmosphere;
    * restoring of surface theta toward an SST profile (or the
      atmosphere's surface temperature when coupled);
    * weak salinity restoring.
    """

    tau0: float = 0.1  # N/m^2 peak wind stress
    tau_restore: float = 30.0 * DAY
    theta_star_eq: float = 28.0  # equatorial target SST, C
    theta_star_pole: float = 0.0
    salt_restore: float = 90.0 * DAY
    salt_star: float = 35.0

    def wind_stress(self, lat_deg: np.ndarray) -> np.ndarray:
        """Idealized westerlies/trades: -tau0 cos(3 phi)-ish profile."""
        phi = np.deg2rad(lat_deg)
        return self.tau0 * (-np.cos(3.0 * np.abs(phi)) * np.cos(phi))

    def theta_star(self, lat_deg: np.ndarray) -> np.ndarray:
        """Restoring SST profile: warm equator, cold poles (deg C)."""
        phi = np.deg2rad(lat_deg)
        return self.theta_star_pole + (self.theta_star_eq - self.theta_star_pole) * np.cos(phi) ** 2

    def apply_tendencies(
        self,
        rank,
        grid: Grid,
        u: np.ndarray,
        v: np.ndarray,
        theta: np.ndarray,
        salt: np.ndarray,
        gu: np.ndarray,
        gv: np.ndarray,
        gtheta: np.ndarray,
        gsalt: np.ndarray,
        flops: FlopCounter,
        taux: Optional[np.ndarray] = None,
        tauy: Optional[np.ndarray] = None,
        theta_surf: Optional[np.ndarray] = None,
    ) -> None:
        """Add wind stress and surface restoring to the G arrays."""
        rho0 = EARTH.rho0
        geo = grid.geometry
        lat = grid.lat_c[rank]
        surface = (..., 0, slice(None), slice(None))
        tx = taux if taux is not None else self.wind_stress(lat)
        drf0 = grid.drf[0]
        gu[surface] += np.where(geo.open_w[rank][surface], tx / (rho0 * drf0), 0.0)
        if tauy is not None:
            gv[surface] += np.where(geo.open_s[rank][surface], tauy / (rho0 * drf0), 0.0)
        target = theta_surf if theta_surf is not None else self.theta_star(lat)
        mask0 = grid.mask_c[rank][surface]
        gtheta[surface] += np.where(mask0, (target - theta[surface]) / self.tau_restore, 0.0)
        gsalt[surface] += np.where(mask0, (self.salt_star - salt[surface]) / self.salt_restore, 0.0)
        flops.add("ocean_forcing", 10 * theta[surface].size)

    def convective_adjustment(
        self, theta: np.ndarray, grid: Grid, rank, flops: FlopCounter
    ) -> int:
        """Ocean static instability: with k = 0 at the sea surface the
        column is unstable where theta[k] < theta[k+1] (warm under
        cold); mixed pairwise to a stable fixed point."""
        mixed = _adjust_column_pairs(theta, grid, max_sweeps=100)
        flops.add("convective_adjustment", 6 * theta.size)
        return mixed

    def surface_level(self, nz: int) -> int:
        """Array index of the surface-adjacent level (ocean: k = 0)."""
        return 0
