"""Fig. 10: sustained performance of the ocean isomorph.

The Hyades rows are computed from the performance model: a
single-processor run has no communication, so its sustained rate is the
flop-weighted harmonic blend of Fps and Fds; the sixteen-processor rate
includes the measured exchange/global-sum costs.  Vector-machine rows
are the literature values the paper reports (see
:mod:`repro.hardware.vector_machines`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import (
    DS_PARAMS,
    HYADES_1CPU_SUSTAINED,
    HYADES_16CPU_SUSTAINED,
    OCN_PS_PARAMS,
    VALIDATION,
)
from repro.core.perf_model import DSPhaseParams, PerformanceModel, PSPhaseParams
from repro.hardware.vector_machines import VECTOR_MACHINES


@dataclass(frozen=True)
class SustainedResult:
    """One computed Hyades row."""

    processors: int
    sustained_flops: float
    tps: float
    tds: float


def hyades_sustained(processors: int) -> SustainedResult:
    """Sustained ocean-isomorph rate on ``processors`` CPUs (two per
    SMP) at the Section 5.3 mean solver iteration count.

    * 1 processor: the whole domain on one CPU, zero communication.
    * 16 processors (8 SMPs, mix-mode): the Fig. 11 parameters verbatim.
    """
    ni, ps_ref, ds_ref = VALIDATION.ni, OCN_PS_PARAMS, DS_PARAMS
    n_smps = max(processors // 2, 1)
    total_cells_3d = ps_ref.nxyz * 16  # reference domain, Fig. 11 units
    total_cols = ds_ref.nxy * 8

    if processors == 1:
        ps = PSPhaseParams(ps_ref.nps, total_cells_3d, 0.0, ps_ref.fps)
        ds = DSPhaseParams(ds_ref.nds, total_cols, 0.0, 0.0, ds_ref.fds)
        pm = PerformanceModel(ps, ds)
        # zero-comm: exchanges cost nothing on one processor
        rate = pm.flops_per_step(ni) / (pm.tps_compute + ni * pm.tds_compute)
        return SustainedResult(1, rate, pm.tps_compute, pm.tds_compute)

    cells_per_cpu = total_cells_3d // processors
    cols_per_master = total_cols // n_smps
    ps = PSPhaseParams(ps_ref.nps, cells_per_cpu, ps_ref.texchxyz, ps_ref.fps)
    ds = DSPhaseParams(ds_ref.nds, cols_per_master, ds_ref.tgsum, ds_ref.texchxy, ds_ref.fds)
    pm = PerformanceModel(ps, ds)
    rate = pm.flops_per_step(ni, n_ps_ranks=processors, n_ds_ranks=n_smps) / (
        pm.tps + ni * pm.tds
    )
    return SustainedResult(processors, rate, pm.tps, pm.tds)


def fig10_table() -> list[dict]:
    """All Fig. 10 rows: vector machines (reference) + computed Hyades."""
    rows = [
        {
            "machine": r.machine,
            "processors": r.processors,
            "sustained_gflops": r.sustained_gflops,
            "source": "paper (literature)",
        }
        for r in VECTOR_MACHINES
    ]
    paper_h = {1: HYADES_1CPU_SUSTAINED / 1e9, 16: HYADES_16CPU_SUSTAINED / 1e9}
    for procs in (1, 16):
        ours = hyades_sustained(procs)
        rows.append(
            {
                "machine": "Hyades",
                "processors": procs,
                "sustained_gflops": ours.sustained_flops / 1e9,
                "paper_gflops": paper_h[procs],
                "source": "computed (perf model)",
            }
        )
    return rows
