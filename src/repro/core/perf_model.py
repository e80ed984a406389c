"""The analytical performance model (paper Section 5.2, eqs. 4-13).

Phase times::

    tps = tps_compute + tps_exch
        = Nps * nxyz / Fps  +  5 * texchxyz                      (4-6)
    tds = tds_compute + tds_exch + tds_gsum
        = Nds * nxy / Fds  +  2 * texchxy  +  2 * tgsum          (7-10)

Total runtime for Nt steps with mean Ni solver iterations::

    Trun  = Nt * tps + Nt * Ni * tds                             (11)
    Tcomm = 2 Nt Ni tgsum + 5 Nt texchxyz + 2 Nt Ni texchxy      (12)
    Tcomp = Nt Nps nxyz / Fps + Nt Ni Nds nxy / Fds              (13)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PSPhaseParams:
    """PS phase inputs (Fig. 11 row)."""

    nps: float  # flops per grid cell per PS pass
    nxyz: int  # 3-D cells per processor
    texchxyz: float  # one 3-D field exchange, seconds
    fps: float  # measured PS kernel rate, flops/s


@dataclass(frozen=True)
class DSPhaseParams:
    """DS phase inputs (Fig. 11 row)."""

    nds: float  # flops per column per solver iteration
    nxy: int  # columns per participating processor
    tgsum: float  # one global sum, seconds
    texchxy: float  # one 2-D field exchange, seconds
    fds: float  # measured DS kernel rate, flops/s


@dataclass(frozen=True)
class PerformanceModel:
    """Eqs. (4)-(13) over one PS + one DS parameter set."""

    ps: PSPhaseParams
    ds: DSPhaseParams

    # -- PS phase (eqs. 4-6) ------------------------------------------

    @property
    def tps_compute(self) -> float:
        return self.ps.nps * self.ps.nxyz / self.ps.fps

    @property
    def tps_exch(self) -> float:
        return 5.0 * self.ps.texchxyz

    @property
    def tps(self) -> float:
        return self.tps_compute + self.tps_exch

    # -- DS phase (eqs. 7-10) --------------------------------------------

    @property
    def tds_compute(self) -> float:
        return self.ds.nds * self.ds.nxy / self.ds.fds

    @property
    def tds_exch(self) -> float:
        return 2.0 * self.ds.texchxy

    @property
    def tds_gsum(self) -> float:
        return 2.0 * self.ds.tgsum

    @property
    def tds(self) -> float:
        return self.tds_compute + self.tds_exch + self.tds_gsum

    # -- totals (eqs. 11-13) ------------------------------------------------

    def trun(self, nt: int, ni: float) -> float:
        """Eq. (11): total runtime of Nt steps with Ni solver iterations."""
        return nt * self.tps + nt * ni * self.tds

    def tcomm(self, nt: int, ni: float) -> float:
        """Eq. (12): total communication time."""
        return nt * (2.0 * ni * self.ds.tgsum + 5.0 * self.ps.texchxyz + 2.0 * ni * self.ds.texchxy)

    def tcomp(self, nt: int, ni: float) -> float:
        """Eq. (13): total computation time."""
        return nt * (self.tps_compute + ni * self.tds_compute)

    # -- derived ---------------------------------------------------------

    def flops_per_step(self, ni: float, n_ps_ranks: int = 1, n_ds_ranks: int = 1) -> float:
        """Total flops per time step over all participating processors."""
        return (
            self.ps.nps * self.ps.nxyz * n_ps_ranks
            + ni * self.ds.nds * self.ds.nxy * n_ds_ranks
        )

    def sustained_flops(self, ni: float, n_ps_ranks: int = 1, n_ds_ranks: int = 1) -> float:
        """Aggregate sustained rate for the modelled configuration."""
        t_step = self.tps + ni * self.tds
        return self.flops_per_step(ni, n_ps_ranks, n_ds_ranks) / t_step

    def comm_fraction(self, nt: int, ni: float) -> float:
        """Fraction of the run spent communicating."""
        total = self.trun(nt, ni)
        return self.tcomm(nt, ni) / total if total else 0.0
