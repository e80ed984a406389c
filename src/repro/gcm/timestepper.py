"""The model time-stepping loop (paper Fig. 6).

Per step:

* **PS** — one five-field, full-halo exchange; evaluation of the G
  terms, physics tendencies, Adams-Bashforth extrapolation, hydrostatic
  pressure and the provisional velocity, one batch of tiles per kernel
  call (state and grid are stacked on a leading rank axis), on each
  tile's *window*: the interior plus the :data:`STENCIL_RING` halo rings
  its stencils read.  Compute is charged per rank at Fps on the whole
  tile the paper's code overcomputes; the exchange at the interconnect
  model's 3-D cost.
* **DS** — the depth-integrated divergence becomes the elliptic RHS; the
  preconditioned CG solves for p_s on the *DS decomposition* (by default
  one tile per SMP master, matching the paper's nxy = 1024 over eight
  masters), with two 2-D exchanges and two global sums per iteration.
  The solve is globally synchronous, so its cost is aggregated and
  charged uniformly.
* velocities corrected with grad p_s, tracers stepped, w re-diagnosed,
  convective adjustment applied.

Between the PS tiles (two per SMP) and the DS tiles (one per SMP) data
moves through shared memory; that regridding is functionally exact here
and charged zero network time (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.gcm import operators as op
from repro.gcm.cg import CGResult, _default_gsum, preconditioned_cg
from repro.gcm.eos import IdealGasEOS, LinearEOS
from repro.gcm.grid import Grid, GridParams
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator, depth_integrate
from repro.gcm.prognostic import (
    DynamicsParams,
    ab2_extrapolate,
    compute_g_terms,
    correct_velocity,
    provisional_velocity,
)
from repro.gcm.state import ModelState
from repro.parallel.exchange import exchange_halos
from repro.parallel.runtime import DS_FLOP_RATE, LockstepRuntime
from repro.parallel.tiling import Decomposition
from repro.precision import CastingOperator, quantize_gsum, resolve_precision


#: Halo rings the PS step computes.  Its deepest chain is two lateral
#: stencils (w from the divergence of the transports, then averaged onto
#: u/v points; the biharmonic), so interiors need two valid rings.
#: ``olx`` may be wider (the paper's three are exchanged and charged),
#: not narrower.  ``tests/gcm/test_step_equivalence.py`` checks that two
#: rings match the full-tile oracle and that one does not.
STENCIL_RING = 2

#: Largest number of cells (levels x rows x columns of the window) one
#: kernel call works on.  The step batches as many whole tiles as
#: fit: big enough to amortise NumPy's per-call cost over small tiles,
#: small enough that a kernel's temporaries stay cache-sized and the
#: working set of large tiles stays what a per-tile loop had (measured
#: against ``peak_rss_mb``; see ROADMAP item 1).
BATCH_CELLS = 10_000


def tile_batches(n_tiles: int, cells_per_tile: int) -> List[slice]:
    """Equal slices of ``range(n_tiles)``: the largest divisor of
    ``n_tiles`` whose tiles fit :data:`BATCH_CELLS` (at least one)."""
    size = max(
        b for b in range(1, n_tiles + 1)
        if n_tiles % b == 0 and (b == 1 or b * cells_per_tile <= BATCH_CELLS)
    )
    return [slice(i, i + size) for i in range(0, n_tiles, size)]


@dataclass
class ModelConfig:
    """Everything needed to build one isomorph."""

    name: str = "ocean"
    grid: GridParams = dc_field(default_factory=GridParams)
    px: int = 4
    py: int = 4
    olx: int = 3
    ds_px: Optional[int] = None  # DS decomposition; default px//2 x py
    ds_py: Optional[int] = None
    cpus_per_node: int = 2
    dt: float = 1200.0
    eos: Any = dc_field(default_factory=LinearEOS)
    dynamics: DynamicsParams = dc_field(default_factory=DynamicsParams)
    physics: Any = None
    cg_tol: float = 1e-7
    cg_maxiter: int = 200
    #: Communication fidelity: a tier name ("des" / "analytic" /
    #: "hybrid"), a :class:`repro.backend.CommBackend` instance, or
    #: ``None`` for the measured-table analytic default.
    backend: Any = None
    tracer_name: str = "salt"  # "salt" (ocean) or "q" (atmosphere)
    #: Restore the non-hydrostatic pressure component (Section 3.1):
    #: w becomes prognostic and a 3-D Poisson solve projects the full
    #: velocity field to non-divergence each step.
    nonhydrostatic: bool = False
    #: Mixed-precision assignment: ``None`` (the seed's all-float64
    #: behaviour), a preset name ("all64"/"all32"/"wire32"), a dict, or
    #: a :class:`repro.precision.PrecisionConfig`.
    precision: Any = None

    def validate(self) -> None:
        """Reject configurations that would fail obscurely later."""
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.cg_tol <= 0 or self.cg_maxiter < 1:
            raise ValueError("cg_tol must be > 0 and cg_maxiter >= 1")
        if self.olx < STENCIL_RING:
            raise ValueError(f"PS halo width olx must be >= {STENCIL_RING}, got {self.olx}")
        if self.px < 1 or self.py < 1:
            raise ValueError("process grid must be positive")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")

    def resolve_ds_shape(self) -> tuple[int, int]:
        """DS tiles default to pairing the two PS tiles of each SMP."""
        if self.ds_px is not None and self.ds_py is not None:
            return self.ds_px, self.ds_py
        if self.cpus_per_node > 1 and self.px % self.cpus_per_node == 0:
            return self.px // self.cpus_per_node, self.py
        return self.px, self.py


@dataclass
class StepStats:
    """Per-step record: solver iterations, flops, convergence, and the
    virtual-time phase breakdown (the measured counterparts of the
    performance model's tps/tds terms, eqs. 4-10)."""

    ni: int = 0
    cg_residual: float = 0.0
    cg_converged: bool = True
    flops_ps: int = 0
    flops_ds: int = 0
    mixed_cells: int = 0
    t_ps_exch: float = 0.0
    t_ps_compute: float = 0.0
    t_ds: float = 0.0
    t_step: float = 0.0
    # non-hydrostatic solve (when enabled)
    ni_nh: int = 0
    flops_nh: int = 0
    t_nh: float = 0.0
    nh_converged: bool = True


class Model:
    """One isomorph (atmosphere or ocean) on the simulated cluster."""

    def __init__(
        self,
        config: ModelConfig,
        depth: Optional[np.ndarray] = None,
        runtime: Optional[LockstepRuntime] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.precision = resolve_precision(config.precision)
        prec = self.precision
        # The state's tiles carry the exchanged (and charged) halo; the
        # grid only the step's window of them.
        nx, ny = config.grid.nx, config.grid.ny
        self.decomp = Decomposition(nx, ny, config.px, config.py, olx=config.olx)
        self.window = self.decomp.window(STENCIL_RING)
        windows = Decomposition(nx, ny, config.px, config.py, olx=STENCIL_RING)
        self.grid = Grid(config.grid, windows, depth=depth, dtype=prec.grid_dtype())
        self.state = ModelState.zeros(self.decomp, config.grid.nz, dtypes=prec.state_dtypes())
        # A decomposition smaller than an SMP (e.g. serial 1x1) runs one
        # rank per node.
        cpn = config.cpus_per_node
        if self.decomp.n_ranks % cpn:
            cpn = 1
        self.runtime = runtime or LockstepRuntime(
            self.decomp,
            backend=config.backend,
            cpus_per_node=cpn,
        )
        self.runtime.trace_label = config.name
        # DS decomposition (one tile per SMP master by default).
        ds_px, ds_py = config.resolve_ds_shape()
        if (ds_px, ds_py) == (config.px, config.py):
            self.ds_decomp = self.decomp
        else:
            self.ds_decomp = Decomposition(nx, ny, ds_px, ds_py, olx=1)
        self.ds_grid = Grid(config.grid, self.ds_decomp, depth=depth, dtype=prec.grid_dtype())
        self.elliptic = EllipticOperator(self.ds_grid)
        self.nh_operator = None
        if config.nonhydrostatic:  # the 3-D solver loads only for a config that runs it
            from repro.gcm.nonhydrostatic import NonHydrostaticOperator

            self.nh_operator = NonHydrostaticOperator(self.grid, self.decomp)
        self.grid.geometry  # static kernel factors: built here, not in step 1
        self._batches = tile_batches(self.decomp.n_ranks, self.grid.hfac_c[0].size)
        # Every PS flop count is a per-cell coefficient times an array's
        # size, so a window's count converts exactly to the tile's.
        self._tile_columns = math.prod(self.decomp.tiles[0].shape2d)
        self._window_columns = math.prod(self.grid.decomp.tiles[0].shape2d)
        # Mixed-precision wiring, resolved once: the all64 default keeps
        # every path below bit- and cost-identical to the seed (8-byte
        # itemsizes, no casts, no solver hooks).
        self._ps_names = ("u", "v", "theta", "tracer", "phy")
        self._ps_itemsizes = prec.exchange_itemsizes(self._ps_names)
        self._ps_wire_dtypes = prec.exchange_wire_dtypes(self._ps_names)
        self._solver_itemsize = prec.ds_itemsize()
        self._solver_wire = prec.exchange_wire_dtype("ps")
        self._gsum_nbytes = prec.gsum_nbytes()
        self._cg_dtype = prec.cg_dtype()
        self._first_step = True
        self.history: List[StepStats] = []
        # Coupling fields (per-PS-tile 2-D arrays, one list per field), set by the coupler:
        # atmosphere consumes "sst"; ocean consumes "taux"/"theta_surf".
        self.coupling: Dict[str, List[np.ndarray]] = {}

    # ------------------------------------------------------------------

    @property
    def is_atmosphere(self) -> bool:
        return isinstance(self.config.eos, IdealGasEOS)

    def initialize(self, theta: np.ndarray, tracer: np.ndarray) -> None:
        """Set initial conditions from global arrays (fluid at rest)."""
        self.state.set_from_global("theta", theta)
        self.state.set_from_global("tracer", tracer)
        self._first_step = True

    # ------------------------------------------------------------------

    def step(self) -> StepStats:
        """Advance one time step (the Fig. 6 loop body)."""
        cfg = self.config
        st = self.state
        rt = self.runtime
        physics = cfg.physics
        stats = StepStats()

        t0 = rt.elapsed

        # ---- PS: the one exchange + sync point of the step -------------
        rt.exchange(
            [st[name] for name in self._ps_names],
            width=cfg.olx,
            itemsize=self._ps_itemsizes,
            wire_dtypes=self._ps_wire_dtypes,
        )
        t_after_exch = rt.elapsed

        if hasattr(physics, "set_time"):
            physics.set_time(st.time)
        ps_flops = np.zeros(self.decomp.n_ranks)
        u_star, v_star = [], []  # one block per batch
        for sl in self._batches:
            us, vs, ps_flops[sl] = self._provisional_batch(sl)
            u_star.append(us)
            v_star.append(vs)
        rt.charge_compute(ps_flops, phase="ps")
        stats.flops_ps = int(ps_flops.sum())
        t_after_ps = rt.elapsed

        # ---- DS: elliptic surface-pressure solve ------------------------
        cg_res, ds_counter = self._solve_surface_pressure(u_star, v_star)
        stats.ni = cg_res.iterations
        stats.cg_residual = cg_res.residual
        stats.cg_converged = cg_res.converged
        stats.flops_ds = ds_counter.total
        self._charge_ds(cg_res, ds_counter)
        t_after_ds = rt.elapsed

        # ---- correction + tracer step -----------------------------------
        for sl, us, vs in zip(self._batches, u_star, v_star):
            ps_flops[sl], mixed = self._correct_batch(sl, us, vs)
            stats.mixed_cells += mixed
        rt.charge_compute(ps_flops, phase="ps")
        stats.flops_ps += int(ps_flops.sum())

        # ---- non-hydrostatic 3-D projection (optional) -------------------
        if self.nh_operator is not None:
            t_before_nh = rt.elapsed
            self._solve_nonhydrostatic(stats)
            stats.t_nh = rt.elapsed - t_before_nh

        stats.t_ps_exch = t_after_exch - t0
        stats.t_ps_compute = t_after_ps - t_after_exch
        stats.t_ds = t_after_ds - t_after_ps
        stats.t_step = rt.elapsed - t0

        st.swap_g_terms()
        self._first_step = False
        st.time += cfg.dt
        st.step_count += 1
        self.history.append(stats)
        if rt.metrics is not None:
            rt.metrics.end_step(ni=stats.ni, step=st.step_count)
        return stats

    # One batch of tiles per call, in its own frame: a batch's
    # temporaries die with it instead of living on into the next one.
    # Fields a stencil reads are copied out of the state's windows
    # (contiguous, so the shifts stay single copies); the rest are read
    # through window views; results are written back into the windows.

    def _provisional_batch(self, sl: slice):
        """PS kernels on the windows of tiles ``sl``: G terms, physics, AB2,
        hydrostatic pressure and ``(u*, v*)``; also the flops per tile."""
        cfg, st, grid, physics = self.config, self.state, self.grid, self.config.physics
        eps, first, win = cfg.dynamics.ab2_eps, self._first_step, self.window
        fc = FlopCounter()
        u, v, theta, tracer = (st[n][sl][win].copy() for n in ("u", "v", "theta", "tracer"))
        b = cfg.eos.buoyancy(theta, tracer)
        fc.add("eos", cfg.eos.flops_per_cell * theta.size)
        gu, gv, gth, gtr, wflux, phy = compute_g_terms(
            sl, grid, u, v, theta, tracer, b, cfg.dynamics, fc
        )
        if physics is not None:
            physics.apply_tendencies(
                sl, grid, u, v, theta, tracer, gu, gv, gth, gtr, fc,
                **self._physics_kwargs(sl),
            )
        st["gu"][sl][win] = gu
        st["gv"][sl][win] = gv
        st["gtheta"][sl][win] = gth
        st["gtracer"][sl][win] = gtr
        st["phy"][sl][win] = phy
        if self.nh_operator is not None:
            # non-hydrostatic: w is prognostic (vertical momentum)
            from repro.gcm.nonhydrostatic import compute_g_w

            w = st["w"][sl][win].copy()
            ut, vt = op.transports(u, v, grid, sl, fc)
            gw = compute_g_w(sl, grid, w, ut, vt, wflux, b, cfg.dynamics.ah, cfg.dynamics.az, fc)
            gw_ab = ab2_extrapolate(gw, st["gw_prev"][sl][win], eps, first, fc)
            st["gw"][sl][win] = gw
            st["w"][sl][win] = (w + cfg.dt * gw_ab) * grid.mask_c[sl]
        else:
            st["w"][sl][win] = op.w_from_flux(wflux, grid, sl, fc)
        gu_ab = ab2_extrapolate(gu, st["gu_prev"][sl][win], eps, first, fc)
        gv_ab = ab2_extrapolate(gv, st["gv_prev"][sl][win], eps, first, fc)
        us, vs = provisional_velocity(sl, grid, u, v, gu_ab, gv_ab, phy, cfg.dt, fc)
        # flop counts are analytic in the array size: equal per tile
        return us, vs, self._tile_flops(fc) / len(us)

    def _correct_batch(self, sl: slice, u_star, v_star):
        """Velocity correction, tracer step and convective adjustment on the
        windows of tiles ``sl``; returns ``(flops per tile, mixed pairs)``."""
        cfg, st, grid = self.config, self.state, self.grid
        eps, first, win = cfg.dynamics.ab2_eps, self._first_step, self.window
        fc = FlopCounter()
        st["u"][sl][win], st["v"][sl][win] = correct_velocity(
            sl, grid, u_star, v_star, st["ps"][sl][win].copy(), cfg.dt, fc
        )
        gth_ab, gtr_ab = (
            ab2_extrapolate(st[g][sl][win], st[g + "_prev"][sl][win], eps, first, fc)
            for g in ("gtheta", "gtracer")
        )
        mask = grid.mask_c[sl]
        theta = st["theta"][sl][win]
        theta = ((theta + cfg.dt * gth_ab) * mask).astype(theta.dtype, copy=False)
        st["tracer"][sl][win] = (st["tracer"][sl][win] + cfg.dt * gtr_ab) * mask
        fc.add("tracer_step", 4 * theta.size)
        mixed = 0
        if hasattr(cfg.physics, "convective_adjustment"):
            mixed = cfg.physics.convective_adjustment(theta, grid, sl, fc)
        st["theta"][sl][win] = theta
        return self._tile_flops(fc) / len(u_star), mixed

    def _tile_flops(self, fc: FlopCounter) -> int:
        """``fc``'s window count as the whole tiles' (the modelled
        machine overcomputes every halo cell)."""
        return fc.total // self._window_columns * self._tile_columns

    def run(self, n_steps: int) -> List[StepStats]:
        """Advance ``n_steps`` time steps; returns their stats."""
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------------

    def _physics_kwargs(self, tiles: slice) -> dict:
        """The coupling fields the physics package consumes, stacked for
        one batch of tiles (the coupler and shard restore keep them as
        per-rank lists)."""
        names = ("sst",) if self.is_atmosphere else ("taux", "tauy", "theta_surf")
        fields = {n: self.coupling[n][tiles] for n in names if n in self.coupling}
        return {n: np.array(f)[self.window] for n, f in fields.items()}

    def _cg_hooks(self, decomp):
        """Solver communication hooks for the precision config, for a
        CG running on ``decomp``: a wire-quantizing global sum when the
        gsum stream is float32 (else None: the solver's default), and a
        width-1 exchange casting through the pressure halo's wire dtype
        (cast-free at the seed's float64)."""
        gsum_hook = None
        if self._gsum_nbytes == 4:

            def gsum_hook(partials):
                quantized = quantize_gsum(partials, np.float32)
                return float(np.float32(_default_gsum(quantized)))

        def exch_hook(fields):
            for f in fields:
                exchange_halos(decomp, f, width=1, wire_dtype=self._solver_wire)

        return gsum_hook, exch_hook

    def _solve_surface_pressure(
        self, u_star: Sequence[np.ndarray], v_star: Sequence[np.ndarray]
    ) -> tuple[CGResult, FlopCounter]:
        """Assemble RHS on the DS decomposition and run the PCG
        (``u_star``/``v_star``: one block per tile batch)."""
        fc = FlopCounter()
        # depth-integrate on the PS windows (3-D work, charged to PS ranks
        # via the returned counter split in _charge_ds)
        window_fc = FlopCounter()
        integrals = [
            depth_integrate(self.grid, sl, us, vs, window_fc)
            for sl, us, vs in zip(self._batches, u_star, v_star)
        ]
        fc.add("depth_integrate", self._tile_flops(window_fc))
        # regrid PS -> DS through shared memory
        ds_uv = []
        for blocks in zip(*integrals):
            ps_tiles = np.concatenate(blocks)
            ds_tiles = np.zeros(self.elliptic.wet.shape, dtype=ps_tiles.dtype)
            self._regrid(self.grid.decomp, ps_tiles, self.ds_decomp, ds_tiles)
            exchange_halos(self.ds_decomp, ds_tiles, width=1, wire_dtype=self._solver_wire)
            ds_uv.append(ds_tiles)
        rhs = self.elliptic.rhs_from_transport(*ds_uv, self.config.dt, fc)
        operator = self.elliptic
        if self._cg_dtype == np.float32:
            operator = CastingOperator(self.elliptic, self._cg_dtype)
            rhs = rhs.astype(self._cg_dtype)
        gsum_hook, exch_hook = self._cg_hooks(self.ds_decomp)
        result = preconditioned_cg(
            operator, rhs, fc, tol=self.config.cg_tol, maxiter=self.config.cg_maxiter,
            global_sum=gsum_hook, exchange=exch_hook,
        )
        # regrid solution DS -> PS and refresh halos (shared memory)
        ps = self.state["ps"]
        ps[...] = 0.0
        self._regrid(self.ds_decomp, np.asarray(result.x), self.decomp, ps)
        exchange_halos(self.decomp, ps)
        return result, fc

    @staticmethod
    def _regrid(src_decomp, src: np.ndarray, dst_decomp, dst: np.ndarray) -> None:
        """Copy tile-stack interiors between two decompositions of the
        same global grid (the shared-memory PS <-> DS hand-over)."""
        view = dst_decomp.global_view(dst)
        view[...] = src_decomp.to_global(src).reshape(view.shape)

    def _solve_nonhydrostatic(self, stats: StepStats) -> None:
        """3-D Poisson projection of (u, v, w) to non-divergence.

        Same communication structure as DS — charged as one two-field
        halo-1 exchange and two global sums per iteration, of which the
        host fills the search direction's halo only — but over 3-D
        fields on the PS decomposition.
        """
        cfg = self.config
        st = self.state
        fc = FlopCounter()
        u, v, w = st["u"], st["v"], st["w"]
        prec = self.precision
        for name, f in (("u", u), ("v", v), ("w", w)):
            exchange_halos(
                self.decomp, f, width=1, wire_dtype=prec.exchange_wire_dtype(name)
            )
        rhs = self.nh_operator.rhs_from_velocity(u, v, w, cfg.dt, fc)
        operator = self.nh_operator
        if self._cg_dtype == np.float32:
            operator = CastingOperator(self.nh_operator, self._cg_dtype)
            rhs = rhs.astype(self._cg_dtype)
        gsum_hook, exch_hook = self._cg_hooks(self.decomp)
        result = preconditioned_cg(
            operator, rhs, fc, tol=cfg.cg_tol, maxiter=cfg.cg_maxiter,
            global_sum=gsum_hook, exchange=exch_hook,
        )
        q = np.asarray(result.x)
        for sl in self._batches:
            self.nh_operator.correct(sl, u[sl], v[sl], w[sl], q[sl], cfg.dt, fc)
        stats.ni_nh = result.iterations
        stats.flops_nh = fc.total
        stats.nh_converged = result.converged

        # charged per iteration: one 2-field 3-D halo-1 exchange + 2 gsums
        rt = self.runtime
        self._charge_solver(
            "nh", result.iterations, fc.total, self.decomp, self.grid.nz,
            rt.mixmode, rt.n_ranks,
        )

    def _charge_ds(self, cg_res: CGResult, counter: FlopCounter) -> None:
        """Charge the DS solve: two 2-D fields on the DS decomposition."""
        self._charge_solver("ds", cg_res.iterations, counter.total, self.ds_decomp, 1, False, 1)

    def _charge_solver(self, phase, iterations, flops, decomp, nz, mixmode, n_ranks) -> None:
        """Charge an aggregated, globally-synchronous solve.

        Per iteration: max-tile compute at Fds, one 2-field width-1
        exchange on ``decomp`` (critical tile; ``mixmode`` / ``n_ranks``
        as the backend takes them) and two global sums (Sections 4, 5.2).
        """
        rt = self.runtime
        be = rt.backend
        ni = max(iterations, 1)
        per_iter_flops = flops / ni / decomp.n_ranks
        edges = decomp.edge_bytes(
            nz=nz, width=1, itemsize=self._solver_itemsize, rank=decomp.critical_rank
        )
        t_exch = ni * 2 * be.exchange_time(edges, mixmode=mixmode, n_ranks=n_ranks)
        t_gsum = ni * 2 * be.gsum_time(rt.n_nodes, self._gsum_nbytes, smp=rt.mixmode)
        rt.sync()
        rt.charge_phase(
            compute=ni * per_iter_flops / DS_FLOP_RATE,
            exchange=t_exch,
            gsum=t_gsum,
            flops=flops,
            n_exchanges=2 * ni,
            n_gsums=2 * ni,
            phase=phase,
        )

    # -- diagnostics -----------------------------------------------------

    def mean_ni(self) -> float:
        """Mean DS solver iterations per step so far (the model's Ni)."""
        if not self.history:
            return 0.0
        return float(np.mean([h.ni for h in self.history]))

    def performance_breakdown(self) -> dict[str, float]:
        """Per-step averages of the measured phase times — the run's own
        Fig. 11-style parameters, directly comparable to the analytic
        performance model (eqs. 4-10).

        The forward-Euler spin-up step is dropped when there are others:
        its solver cold start is unrepresentative (as in Section 5.3's
        steady-state accounting).
        """
        hist = self.history[1:] if len(self.history) > 1 else self.history
        if not hist:
            return {}
        n = len(hist)
        ni = float(np.mean([h.ni for h in hist]))
        return {
            "steps": float(n),
            "ni": ni,
            "tps_exch": float(np.mean([h.t_ps_exch for h in hist])),
            "tps_compute": float(np.mean([h.t_ps_compute for h in hist])),
            "tds": float(np.mean([h.t_ds for h in hist])) / max(ni, 1.0),
            "t_step": float(np.mean([h.t_step for h in hist])),
            "flops_per_step": float(np.mean([h.flops_ps + h.flops_ds for h in hist])),
        }

    def surface_temperature(self) -> np.ndarray:
        """Global surface-level theta (SST for the ocean; lowest-level
        air temperature for the atmosphere)."""
        k = 0
        if self.config.physics is not None and hasattr(self.config.physics, "surface_level"):
            k = self.config.physics.surface_level(self.grid.nz)
        return self.state.to_global("theta")[k]
