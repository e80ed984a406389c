"""Scaling studies built on the performance model.

The paper evaluates one machine size (16 CPUs) and one resolution
(2.8125 deg); these sweeps extend its analysis along both axes —
the natural follow-up questions a reader of Section 5.4 asks:

* how does sustained performance scale with processor count on each
  interconnect (where does parallel efficiency collapse)?
* at what resolution does a commodity-interconnect cluster become
  viable (the grain-size crossover implied by Fig. 12)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS
from repro.core.perf_model import DSPhaseParams, PerformanceModel, PSPhaseParams
from repro.core.pfpp import (
    _tailored,
    comm_terms,
    pfpp_ds,
    pfpp_ps,
    reference_process_grid,
)
from repro.network.costmodel import CommCostModel, arctic_cost_model
from repro.parallel.tiling import Decomposition


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a sweep."""

    n_cpus: int
    nx: int
    ny: int
    nz: int
    sustained: float  # aggregate flops/s
    efficiency: float  # sustained / (n_cpus * blended single-CPU rate)
    tps: float
    tds: float
    pfpp_ps: float
    pfpp_ds: float


def model_at(
    n_cpus: int,
    nx: int = 128,
    ny: int = 64,
    cost_model: Optional[CommCostModel] = None,
) -> ScalingPoint:
    """Evaluate the performance model for one configuration: the
    reference atmosphere's ten levels, 60 solver iterations per step
    and the Fig. 11 flop counts and kernel rates.

    Tiles follow the near-square power-of-two process grid
    (:func:`~repro.core.pfpp.reference_process_grid`).  A machine with
    the tailored primitives runs the production mapping (Section 5): two
    CPUs per SMP in mix-mode, DS and the global sum on the masters; an
    MPI machine is flat over all CPUs.  Falls back to one CPU per node
    when the count is below one SMP.
    """
    nz, ni, cpus_per_node = 10, 60.0, 2
    nps, fps = ATM_PS_PARAMS.nps, ATM_PS_PARAMS.fps
    nds, fds = DS_PARAMS.nds, DS_PARAMS.fds
    cm = cost_model or arctic_cost_model()
    if n_cpus == 1:
        ps = PSPhaseParams(nps, nx * ny * nz, 0.0, fps)
        ds = DSPhaseParams(nds, nx * ny, 0.0, 0.0, fds)
        pm = PerformanceModel(ps, ds)
        rate = pm.flops_per_step(ni) / (pm.tps_compute + ni * pm.tds_compute)
        return ScalingPoint(
            1, nx, ny, nz, rate, 1.0, pm.tps_compute, pm.tds_compute, float("inf"), float("inf")
        )

    if n_cpus % cpus_per_node:
        cpus_per_node = 1
    px, py = reference_process_grid(n_cpus)
    if nx % px or ny % py:
        raise ValueError(f"grid {nx}x{ny} not tileable over {n_cpus} CPUs")
    d = Decomposition(nx, ny, px, py, olx=min(3, nx // px, ny // py))
    masters = None
    if _tailored(cm):
        masters = Decomposition(
            nx, ny, *reference_process_grid(n_cpus // cpus_per_node), olx=1
        )
    terms = comm_terms(
        cm, d, nz, ds_decomp=masters, mixmode=masters is not None and cpus_per_node > 1
    )
    n_ds_ranks = (masters or d).n_ranks
    nxyz = nx * ny * nz // n_cpus
    nxy = nx * ny // n_ds_ranks
    pm = PerformanceModel(
        PSPhaseParams(nps, nxyz, terms.texchxyz, fps),
        DSPhaseParams(nds, nxy, terms.tgsum, terms.texchxy, fds),
    )
    sustained = pm.sustained_flops(ni, n_ps_ranks=n_cpus, n_ds_ranks=n_ds_ranks)
    single = model_at(1, nx, ny, cm).sustained
    return ScalingPoint(
        n_cpus,
        nx,
        ny,
        nz,
        sustained,
        sustained / (n_cpus * single),
        pm.tps,
        pm.tds,
        pfpp_ps(nps, nxyz, terms.texchxyz),
        pfpp_ds(nds, nxy, terms.tgsum, terms.texchxy),
    )


def cpu_sweep(
    counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    cost_model: Optional[CommCostModel] = None,
) -> list[ScalingPoint]:
    """Sustained performance vs processor count at fixed resolution."""
    return [model_at(n, cost_model=cost_model) for n in counts]


def resolution_sweep(
    factors: Sequence[int] = (1, 2, 4),
    cost_model: Optional[CommCostModel] = None,
) -> list[ScalingPoint]:
    """Sustained performance vs resolution (grid refined by ``factor``)
    on Hyades' sixteen CPUs — the grain-size axis of Fig. 12."""
    return [
        model_at(16, nx=128 * f, ny=64 * f, cost_model=cost_model) for f in factors
    ]
