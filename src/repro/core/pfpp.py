"""Potential Floating-Point Performance (paper Section 5.4, eqs. 14-15).

Pfpp is the per-processor floating-point rate an application *would*
sustain if computation took zero time — i.e. the ceiling the
interconnect imposes:

    Pfpp,ps = Nps nxyz / (5 texchxyz)                      (14)
    Pfpp,ds = Nds nxy  / (2 tgsum + 2 texchxy)             (15)

If Pfpp greatly exceeds the processor's compute rate, buying faster
CPUs helps; if Pfpp is *below* it, only a better interconnect can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS, FIG12_PAPER
from repro.network.costmodel import (
    CommCostModel,
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)
from repro.parallel.tiling import Decomposition


def pfpp_ps(nps: float, nxyz: int, texchxyz: float) -> float:
    """Eq. (14): PS-phase potential rate, flops/s."""
    if texchxyz <= 0:
        raise ValueError("texchxyz must be positive")
    return nps * nxyz / (5.0 * texchxyz)


def pfpp_ds(nds: float, nxy: int, tgsum: float, texchxy: float) -> float:
    """Eq. (15): DS-phase potential rate, flops/s."""
    denom = 2.0 * tgsum + 2.0 * texchxy
    if denom <= 0:
        raise ValueError("communication times must be positive")
    return nds * nxy / denom


def ds_comm_budget(nds: float, nxy: int, target_flops: float) -> float:
    """Max tgsum + texchxy for Pfpp,ds to reach ``target_flops``.

    Section 5.4: for 60 MFlop/s at the reference configuration the sum
    cannot exceed 306 us.
    """
    return nds * nxy / (2.0 * target_flops)


@dataclass(frozen=True)
class Fig12Row:
    """One interconnect's row of Fig. 12."""

    name: str
    tgsum: float
    texchxy: float
    texchxyz: float
    pfpp_ps: float
    pfpp_ds: float
    fps: float = 50e6
    fds: float = 60e6


def interconnect_comm_times(
    model: CommCostModel,
    n_ranks: int = 16,
    n_smps: int = 8,
    mixmode: bool = True,
) -> tuple[float, float, float]:
    """(tgsum, texchxy, texchxyz) for the reference 2.8125-deg atmosphere.

    Arctic uses the tailored primitives (hierarchical SMP global sum over
    the masters, mix-mode exchange, DS on one tile per SMP); the
    Ethernet baselines use MPI over all ranks (flat 16-way gsum, halo-1
    2-D exchange on the PS tiles), matching how the paper measured each.
    """
    ps_decomp = Decomposition(128, 64, 4, 4, olx=3)
    if model.name == "Arctic":
        tgsum = model.gsum_time(n_smps, smp=mixmode)
        ds_decomp = Decomposition(128, 64, 2, 4, olx=1)
        ds_rank = max(
            range(ds_decomp.n_ranks),
            key=lambda r: sum(ds_decomp.edge_bytes(nz=1, width=1, rank=r)),
        )
        texchxy = model.exchange_time(
            ds_decomp.edge_bytes(nz=1, width=1, rank=ds_rank), mixmode=False
        )
        texchxyz = model.exchange_time(
            ps_decomp.edge_bytes(nz=10, rank=5), mixmode=True
        )
    else:
        tgsum = model.gsum_time(n_ranks)
        texchxy = model.exchange_time(
            ps_decomp.edge_bytes(nz=1, width=1, rank=5), n_ranks=n_ranks
        )
        texchxyz = model.exchange_time(
            ps_decomp.edge_bytes(nz=10, rank=5), n_ranks=n_ranks
        )
    return tgsum, texchxy, texchxyz


def fig12_table(
    nps: float = ATM_PS_PARAMS.nps,
    nxyz: int = ATM_PS_PARAMS.nxyz,
    nds: float = DS_PARAMS.nds,
    nxy: int = DS_PARAMS.nxy,
    from_models: bool = True,
) -> list[Fig12Row]:
    """Build Fig. 12 for FE / GE / Arctic.

    ``from_models=True`` computes tgsum/texch from the interconnect cost
    models (the reproduction's own numbers); ``False`` uses the paper's
    measured values verbatim.  Either way the Pfpp columns come from
    eqs. (14)-(15).
    """
    rows = []
    if from_models:
        sources: Mapping[str, CommCostModel] = {
            "Fast Ethernet": fast_ethernet_cost_model(),
            "Gigabit Ethernet": gigabit_ethernet_cost_model(),
            "Arctic": arctic_cost_model(),
        }
        for name, cm in sources.items():
            tg, t2, t3 = interconnect_comm_times(cm)
            rows.append(
                Fig12Row(
                    name=name,
                    tgsum=tg,
                    texchxy=t2,
                    texchxyz=t3,
                    pfpp_ps=pfpp_ps(nps, nxyz, t3),
                    pfpp_ds=pfpp_ds(nds, nxy, tg, t2),
                )
            )
    else:
        for name, vals in FIG12_PAPER.items():
            rows.append(
                Fig12Row(
                    name=name,
                    tgsum=vals["tgsum"],
                    texchxy=vals["texchxy"],
                    texchxyz=vals["texchxyz"],
                    pfpp_ps=pfpp_ps(nps, nxyz, vals["texchxyz"]),
                    pfpp_ds=pfpp_ds(nds, nxy, vals["tgsum"], vals["texchxy"]),
                )
            )
    return rows


# -- PFPP under the best-known collective (autotuned, large N) ------------

#: Legacy node-count -> process grid table, kept as a compatibility
#: alias; :func:`reference_process_grid` now derives the grid for any
#: power-of-two rank count (these three entries are what it returns).
BEST_COLLECTIVE_GRIDS: Mapping[int, tuple[int, int]] = {
    16: (4, 4),
    64: (8, 8),
    256: (16, 16),
}

#: The reference 2.8125-degree atmosphere grid (Section 5).
REFERENCE_NX, REFERENCE_NY = 128, 64


def reference_process_grid(n_ranks: int) -> tuple[int, int]:
    """The near-square power-of-two process grid for ``n_ranks``.

    ``px >= py`` (the atmosphere grid is wider than tall), with the two
    extents within a factor of two — the layout the paper's fixed table
    used at 16/64/256, generalized to any power-of-two rank count.
    """
    if (
        not isinstance(n_ranks, int)
        or n_ranks < 1
        or n_ranks & (n_ranks - 1)
    ):
        raise ValueError(
            f"no reference process grid for N={n_ranks}: rank count "
            f"must be a power of two >= 1"
        )
    k = n_ranks.bit_length() - 1
    py = 1 << (k // 2)
    px = n_ranks // py
    return px, py


def reference_decomposition(
    n_ranks: int, olx: int = 3
) -> tuple[Decomposition, float]:
    """The reference atmosphere decomposition at ``n_ranks`` ranks.

    Weak-scales the 128x64 global grid (doubling extents) whenever the
    per-rank tile would be smaller than the halo requires — large
    machines run proportionally larger problems, as every cited
    large-N machine did.  Returns ``(decomposition, area_scale)`` where
    ``area_scale`` is the global-grid growth factor relative to the
    reference configuration (1.0 up to N=256), used to scale the
    per-level point counts in eqs. (14)-(15).
    """
    px, py = reference_process_grid(n_ranks)
    nx, ny = REFERENCE_NX, REFERENCE_NY
    while nx // px <= olx:
        nx *= 2
    while ny // py <= olx:
        ny *= 2
    scale = (nx * ny) / float(REFERENCE_NX * REFERENCE_NY)
    return Decomposition(nx, ny, px, py, olx=olx), scale


@dataclass(frozen=True)
class BestCollectiveRow:
    """Fig. 12-style row at one node count with autotuned collectives."""

    n_nodes: int
    #: winning allreduce algorithm for the DS gsum (8-byte payload).
    gsum_algorithm: str
    gsum_rounds: int
    tgsum: float
    texchxy: float
    texchxyz: float
    pfpp_ps: float
    pfpp_ds: float


def best_collectives_table(
    n_values: tuple[int, ...] = (16, 64, 256),
    nps: float = ATM_PS_PARAMS.nps,
    nxyz: int = ATM_PS_PARAMS.nxyz,
    nds: float = DS_PARAMS.nds,
    nxy: int = DS_PARAMS.nxy,
) -> list[BestCollectiveRow]:
    """Extend Fig. 12's Arctic row to large flat clusters.

    At each node count the DS-phase tgsum is the autotuner's best-known
    allreduce (doubleword payload) over the Arctic LogP costs rather
    than the fixed measured-table butterfly, and the exchange terms come
    from the cost model on the matching process grid — the interconnect
    ceiling eq. (14)/(15) would impose on a scaled-up Hyades.
    """
    from repro.collectives import default_tuner

    tuner = default_tuner()
    model = arctic_cost_model()
    rows = []
    for n in n_values:
        decomp, _scale = reference_decomposition(n)
        worst = max(
            range(decomp.n_ranks),
            key=lambda r: sum(decomp.edge_bytes(nz=1, width=1, rank=r)),
        )
        texchxy = model.exchange_time(
            decomp.edge_bytes(nz=1, width=1, rank=worst)
        )
        texchxyz = model.exchange_time(decomp.edge_bytes(nz=10, rank=worst))
        plan = tuner.plan("allreduce", n, 8)
        rows.append(
            BestCollectiveRow(
                n_nodes=n,
                gsum_algorithm=plan.algorithm,
                gsum_rounds=plan.n_rounds,
                tgsum=plan.predicted_s,
                texchxy=texchxy,
                texchxyz=texchxyz,
                pfpp_ps=pfpp_ps(nps, nxyz, texchxyz),
                pfpp_ds=pfpp_ds(nds, nxy, plan.predicted_s, texchxy),
            )
        )
    return rows


# -- cross-architecture PFPP scoreboard (the topology zoo) -----------------


@dataclass(frozen=True)
class TopologyRow:
    """One (machine shape, node count) row of the scoreboard."""

    topology: str
    n_nodes: int
    grid: tuple[int, int]
    #: allreduce algorithm the tuner picked on this machine ("mpi-fit"
    #: on the shared-Ethernet baseline, whose gsum is the calibrated
    #: measured fit rather than a tuned schedule).
    gsum_algorithm: str
    tgsum: float
    texchxy: float
    texchxyz: float
    pfpp_ps: float
    pfpp_ds: float
    max_hops: int
    bisection_bandwidth: float
    #: weak-scaling growth of the global grid vs the reference config.
    area_scale: float
    #: wire precision the row is priced at ("all64" unless a
    #: mixed-precision config narrowed the payloads).
    precision: str = "all64"


def topology_scoreboard(
    topologies: tuple[str, ...] = None,
    n_values: tuple[int, ...] = (256, 1024, 4096),
    nps: float = ATM_PS_PARAMS.nps,
    nxyz: int = ATM_PS_PARAMS.nxyz,
    nds: float = DS_PARAMS.nds,
    nxy: int = DS_PARAMS.nxy,
    itemsize: int = 8,
    gsum_nbytes: int = 8,
    precision: str = "all64",
) -> list[TopologyRow]:
    """Where does the GCM land on each 1990s machine, and why.

    For every registered topology (or the default line-up) at every
    node count: the halo-exchange terms come from the topology's
    calibrated cost model (hop-latency aware; shared media pay the
    whole cluster's volume), the gsum is the per-topology autotuned
    allreduce, and eqs. (14)-(15) convert them into the interconnect's
    PFPP ceiling.  The global grid weak-scales past N=256
    (:func:`reference_decomposition`), and the point counts in the
    numerators scale with it, so rows at one N are directly comparable
    across machines.

    ``itemsize``/``gsum_nbytes`` price a mixed-precision wire (4 bytes
    per element when :class:`repro.precision.PrecisionConfig` packs the
    halo/gsum payloads at float32; see
    :meth:`~repro.precision.PrecisionConfig.scoreboard_args`), and
    ``precision`` labels the rows.  Caveat: the shared-medium gsum is
    the calibrated measured fit, which has no byte term — only
    exchange rows move on those machines.
    """
    from repro.collectives.tuner import Autotuner
    from repro.network.topology import SCOREBOARD_TOPOLOGIES, make_topology

    names = tuple(topologies) if topologies else SCOREBOARD_TOPOLOGIES
    rows = []
    for n in n_values:
        decomp, scale = reference_decomposition(n)
        worst = max(
            range(decomp.n_ranks),
            key=lambda r: sum(decomp.edge_bytes(nz=1, width=1, rank=r)),
        )
        edges_xy = decomp.edge_bytes(nz=1, width=1, itemsize=itemsize, rank=worst)
        edges_xyz = decomp.edge_bytes(nz=10, itemsize=itemsize, rank=worst)
        for name in names:
            topo = make_topology(name, n)
            model = topo.cost_model()
            texchxy = model.exchange_time(edges_xy, n_ranks=n)
            texchxyz = model.exchange_time(edges_xyz, n_ranks=n)
            if topo.shared_medium:
                # MPI over the shared medium: the calibrated measured
                # fit, exactly as the paper's Fig. 12 baselines (no
                # byte term, so gsum_nbytes cannot move it).
                tgsum = model.gsum_time(n)
                algorithm = "mpi-fit"
            else:
                plan = Autotuner(topology=topo).plan("allreduce", n, gsum_nbytes)
                tgsum = plan.predicted_s
                algorithm = plan.algorithm
            rows.append(
                TopologyRow(
                    topology=topo.name,
                    n_nodes=n,
                    grid=(decomp.px, decomp.py),
                    gsum_algorithm=algorithm,
                    tgsum=tgsum,
                    texchxy=texchxy,
                    texchxyz=texchxyz,
                    pfpp_ps=pfpp_ps(nps, nxyz * scale, texchxyz),
                    pfpp_ds=pfpp_ds(nds, nxy * scale, tgsum, texchxy),
                    max_hops=topo.max_hop_distance(),
                    bisection_bandwidth=topo.bisection_bandwidth(),
                    area_scale=scale,
                    precision=precision,
                )
            )
    return rows
