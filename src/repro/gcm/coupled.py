"""Coupled atmosphere-ocean simulation (paper Section 5.1).

"In coupled simulations, the ocean and atmosphere isomorphs must run
concurrently, periodically exchanging boundary conditions.  During
full-scale production runs, each isomorph occupies half of the cluster,
sixteen processors on eight SMPs."

The coupler passes:

* ocean -> atmosphere: the SST field (surface boundary condition for the
  atmospheric physics);
* atmosphere -> ocean: surface wind stress (from lowest-level winds via
  a bulk formula) and the lowest-level air temperature (surface heat
  flux target).

Because the two isomorphs run on disjoint halves of the machine, coupled
virtual wall-clock is the *maximum* of the two components' clocks per
coupling window plus a small boundary-exchange cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gcm.timestepper import Model
from repro.obs import trace as obs_trace
from repro.parallel.exchange import HaloExchanger, exchange_halos


@dataclass
class CouplerParams:
    """Bulk-formula coefficients for the air-sea fluxes."""

    drag_coeff: float = 1.3e-3
    air_density: float = 1.2
    #: Steps of each component between coupling events.
    coupling_interval: int = 4


class CoupledModel:
    """Runs the two isomorphs concurrently with periodic coupling."""

    def __init__(
        self,
        atmosphere: Model,
        ocean: Model,
        params: Optional[CouplerParams] = None,
    ) -> None:
        ga, go = atmosphere.config.grid, ocean.config.grid
        if (ga.nx, ga.ny) != (go.nx, go.ny):
            raise ValueError("coupled components must share the lateral grid")
        self.atmosphere = atmosphere
        self.ocean = ocean
        self.params = params or CouplerParams()
        self.couplings = 0
        self.windows_run = 0
        self._hx_atm = HaloExchanger(atmosphere.decomp)
        self._hx_ocn = HaloExchanger(ocean.decomp)
        self.exchange_boundary_conditions()

    def backends(self) -> list:
        """The distinct communication backends of both components (one
        entry when the isomorphs share a backend instance, as
        :func:`coupled_model` arranges)."""
        out = []
        for m in (self.atmosphere, self.ocean):
            be = m.runtime.backend
            if all(be is not b for b in out):
                out.append(be)
        return out

    # ------------------------------------------------------------------

    def exchange_boundary_conditions(self) -> None:
        """One coupling event: swap surface fields between components."""
        # ocean -> atmosphere: SST
        sst = self.ocean.surface_temperature()
        sst_tiles = self._hx_atm.scatter_global(sst)
        self._fill_halos(self.atmosphere, sst_tiles)
        self.atmosphere.coupling["sst"] = sst_tiles

        # atmosphere -> ocean: wind stress from lowest-level winds
        ks = self.atmosphere.grid.nz - 1
        ua = self.atmosphere.state.to_global("u")[ks]
        va = self.atmosphere.state.to_global("v")[ks]
        speed = np.sqrt(ua**2 + va**2)
        rho_cd = self.params.air_density * self.params.drag_coeff
        taux = rho_cd * speed * ua
        tauy = rho_cd * speed * va
        tsurf = self.atmosphere.surface_temperature()
        for name, g in (("taux", taux), ("tauy", tauy), ("theta_surf", tsurf)):
            tiles = self._hx_ocn.scatter_global(g)
            self._fill_halos(self.ocean, tiles)
            self.ocean.coupling[name] = tiles
        self.couplings += 1
        tr = obs_trace.TRACER
        if tr is not None:
            self._trace_coupling(tr)

    def _fill_halos(self, model: Model, tiles: list) -> None:
        """Fill the halos of one boundary field scattered onto
        ``model``'s tiles (here: in shared memory)."""
        exchange_halos(model.decomp, tiles)

    def _trace_coupling(self, tr) -> None:
        tr.instant(
            "coupler", "events", "couple", self.elapsed, cat="coupler",
            args={"coupling": self.couplings},
        )

    def step_coupled(self) -> None:
        """Advance both components one coupling window, then couple.

        A window overlapping an attached degradation schedule is
        contested: window-switching backends like the hybrid tier answer
        it at DES fidelity, without the caller having to know the fault
        timetable.
        """
        t0 = self.elapsed
        width = max(t0 / self.windows_run, 1e-9) if self.windows_run else 1e-3
        for be in self.backends():
            schedule = getattr(be, "degradation", None)
            degraded = (
                schedule is not None and schedule.overlaps(t0, t0 + width)
            )
            be.begin_window(degraded)
        n = self.params.coupling_interval
        self.atmosphere.run(n)
        self.ocean.run(n)
        self.exchange_boundary_conditions()
        self.windows_run += 1

    def run(self, n_windows: int) -> None:
        """Advance ``n_windows`` coupling windows."""
        for _ in range(n_windows):
            self.step_coupled()

    # -- performance -----------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Coupled virtual wall-clock: the slower component dominates
        each synchronous coupling window."""
        return max(self.atmosphere.runtime.elapsed, self.ocean.runtime.elapsed)

    def combined_sustained_flops(self) -> float:
        """Aggregate sustained rate of both halves of the cluster
        (Section 5.1: 1.6-1.8 GFlop/s for full-scale production)."""
        total = self.atmosphere.runtime.total_flops() + self.ocean.runtime.total_flops()
        t = self.elapsed
        return total / t if t > 0 else 0.0


class DESCoupledModel(CoupledModel):
    """A coupled run whose boundary-condition fields travel the simulated
    Arctic fabric instead of shared memory.

    Every coupling event ships the SST / wind-stress / surface-air
    fields between the isomorphs' tiles as real bytes through the DES
    cluster's NIUs — optionally through the reliable-delivery layer, so
    the coupling survives injected fabric faults bit-exactly.  The DES
    virtual time spent on the wire accumulates in :attr:`des_elapsed`.

    With ``recovery`` set (a :class:`repro.recover.RecoveryConfig`) the
    run becomes *self-healing*: heartbeat failure detection runs on the
    cluster, coordinated checkpoints are taken every
    ``checkpoint_interval`` coupling windows, and a mid-run node crash
    rolls back to the last checkpoint, remaps the dead node's ranks
    onto a spare (``HyadesConfig.n_spares``) and recomputes — finishing
    bit-exact with a fault-free run.
    """

    def __init__(
        self,
        atmosphere: Model,
        ocean: Model,
        cluster,
        params: Optional[CouplerParams] = None,
        reliable: bool = True,
        recovery=None,
    ) -> None:
        from repro.parallel.des_spmd import DESExchanger

        self.cluster = cluster
        self.des_elapsed = 0.0
        self.recovery = None
        self._windows_done = 0
        if recovery is not None:
            from repro.recover import RecoveryManager

            if not reliable:
                raise ValueError("crash recovery requires reliable=True")
            if atmosphere.decomp.n_ranks != ocean.decomp.n_ranks:
                raise ValueError(
                    "crash recovery assumes the isomorphs share one rank set"
                )
            self.recovery = RecoveryManager(
                cluster,
                atmosphere.decomp.n_ranks,
                config=recovery,
            )
        self._des_atm = DESExchanger(
            cluster,
            atmosphere.decomp,
            reliable=reliable,
            recovery=self.recovery,
        )
        self._des_ocn = DESExchanger(
            cluster,
            ocean.decomp,
            reliable=reliable,
            recovery=self.recovery,
        )
        if self.recovery is not None:
            self.recovery.arm()
        super().__init__(atmosphere, ocean, params)

    def exchange_boundary_conditions(self) -> None:
        """One coupling event with the halo fills on the wire."""
        self._wire_t0 = self.cluster.engine.now
        super().exchange_boundary_conditions()

    def _fill_halos(self, model: Model, tiles: list) -> None:
        des = self._des_atm if model is self.atmosphere else self._des_ocn
        self.des_elapsed += des.exchange(tiles)

    def _trace_coupling(self, tr) -> None:
        tr.complete(
            "coupler", "wire", "couple",
            self._wire_t0, self.cluster.engine.now, cat="coupler",
            args={"coupling": self.couplings, "des_elapsed_s": self.des_elapsed},
        )

    # -- self-healing run loop -------------------------------------------

    def run(self, n_windows: int) -> None:
        """Advance ``n_windows`` coupling windows.

        Without recovery this is the plain loop.  With recovery armed,
        the loop coordinates checkpoints every K windows and treats a
        :class:`~repro.recover.NodeFailure` as a rollback: recover (fence
        + remap + restore), rewind the window counter to the restored
        checkpoint, and recompute forward.  Overlapping failures that
        exhaust the spare pool escape as
        :class:`~repro.recover.UnrecoverableError`.
        """
        mgr = self.recovery
        if mgr is None:
            super().run(n_windows)
            return
        from repro.recover import NodeFailure

        models = {"atm": self.atmosphere, "ocn": self.ocean}
        target = self._windows_done + n_windows
        interval = mgr.config.checkpoint_interval
        while self._windows_done < target:
            try:
                if not mgr.checkpoint_log:
                    # first committed checkpoint: the rollback floor
                    mgr.checkpoint(models, self._windows_done)
                self.step_coupled()
                self._windows_done += 1
                if (
                    self._windows_done % interval == 0
                    and self._windows_done < target
                ):
                    mgr.checkpoint(models, self._windows_done)
            except NodeFailure as failure:
                # A further death during the restore phase surfaces as a
                # fresh NodeFailure; keep recovering until the cluster is
                # stable (or UnrecoverableError ends the run).
                while True:
                    try:
                        self._windows_done = mgr.recover(models, failure)
                        break
                    except NodeFailure as again:
                        failure = again

    def reliability_stats(self) -> dict:
        """Aggregated reliable-layer counters for both isomorphs."""
        totals: dict = {}
        for ex in (self._des_atm, self._des_ocn):
            for key, val in ex.reliability_stats().items():
                totals[key] = totals.get(key, 0) + val
        return totals


#: The small wire-coupled run of the fault, crash-recovery and trace
#: demos: 16x8 columns on 2x2 tiles, two steps per coupling window.
DEMO_SHAPE = dict(
    nx=16, ny=8, nz_atm=3, nz_ocn=4, px=2, py=2, dt=600.0, coupling_interval=2
)


def coupled_model(
    nx: int = 128,
    ny: int = 64,
    nz_atm: int = 10,
    nz_ocn: int = 30,
    px: int = 4,
    py: int = 4,
    dt: float = 405.0,
    coupling_interval: int = 4,
    backend=None,
    cluster=None,
    reliable: bool = True,
    recovery=None,
    **kw,
) -> CoupledModel:
    """Build the paper's synchronous coupled configuration.

    Both isomorphs share the lateral grid and time step (synchronous
    coupling); each runs on its own sixteen-rank half of the cluster.

    ``backend`` selects the communication fidelity ("des" / "analytic"
    / "hybrid", or a :class:`repro.backend.CommBackend` instance); one
    shared instance serves both isomorphs, so the DES tier's memoized
    measurements and the hybrid tier's window switching are common to
    the whole coupled run.

    With a ``cluster`` (a :class:`~repro.hardware.cluster.HyadesCluster`)
    the boundary conditions travel its simulated fabric: the result is
    a :class:`DESCoupledModel`, built with ``reliable`` and ``recovery``.
    """
    from repro.backend import resolve_backend
    from repro.gcm.atmosphere import atmosphere_model
    from repro.gcm.ocean import ocean_model

    backend = resolve_backend(backend)
    atm = atmosphere_model(
        nx=nx, ny=ny, nz=nz_atm, px=px, py=py, dt=dt, backend=backend, **kw
    )
    ocn = ocean_model(
        nx=nx, ny=ny, nz=nz_ocn, px=px, py=py, dt=dt, backend=backend, **kw
    )
    params = CouplerParams(coupling_interval=coupling_interval)
    if cluster is None:
        return CoupledModel(atm, ocn, params)
    return DESCoupledModel(
        atm, ocn, cluster, params, reliable=reliable, recovery=recovery
    )
