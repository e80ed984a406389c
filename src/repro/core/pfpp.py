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
from typing import NamedTuple, Optional

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


class CommTerms(NamedTuple):
    """The three communication times of one configuration (Fig. 11)."""

    tgsum: float
    texchxy: float
    texchxyz: float
    #: what priced the global sum: "butterfly" (the tailored Section 4.2
    #: primitive), "mpi-fit" (an MPI model's calibrated fit) or, on the
    #: autotuned tables, the allreduce algorithm the tuner picked.
    gsum_algorithm: str


def _tailored(model: CommCostModel) -> bool:
    """Whether the machine runs the paper's tailored primitives (mix-mode
    relay through the SMP master, DS and global sum on the masters) or
    flat MPI over every rank — read off the model's data, not its name."""
    return model.slave_bw_factor is not None


def comm_terms(
    pricer,
    decomp: Decomposition,
    nz: int,
    *,
    ds_decomp: Optional[Decomposition] = None,
    mixmode: bool = False,
    n_nodes: Optional[int] = None,
    itemsize: int = 8,
    gsum_nbytes: int = 8,
) -> CommTerms:
    """Map one GCM configuration to ``(tgsum, texchxy, texchxyz)``.

    The only code that knows which exchange and which global sum a
    configuration pays (docs/backends.md, "Quoting a configuration"):

    * ``texchxyz`` — the PS exchange: ``nz`` levels of ``decomp``'s full
      halo on its critical rank; ``mixmode`` adds the SMP master's relay
      of its slave's halo.
    * ``texchxy`` — the DS exchange: one width-1 level on ``ds_decomp``
      (the paper's one tile per SMP master, priced per master exactly as
      the runtime charges it) or, without one, on the PS tiles.
    * ``tgsum`` — the DS global sum over ``n_nodes`` participants
      (default: one per DS tile), hierarchical 2xN when ``mixmode``.

    ``pricer`` is a :class:`~repro.backend.CommBackend` or a bare
    :class:`CommCostModel` (whose gsum fit has no byte term, so
    ``gsum_nbytes`` only reaches a backend).  A shared medium sees the
    volume of all ``decomp.n_ranks`` ranks — the rank count cannot
    disagree with the decomposition.  ``itemsize``/``gsum_nbytes`` price
    a mixed-precision wire.
    """
    if decomp.n_ranks < 2:
        raise ValueError(
            f"decomp has {decomp.n_ranks} rank: a single tile communicates "
            f"nothing, so its terms (and Pfpp) are undefined; need >= 2 ranks"
        )
    model = getattr(pricer, "model", pricer)  # a backend carries its model
    ds = ds_decomp or decomp
    n_nodes = n_nodes or ds.n_ranks
    rank = decomp.critical_rank
    texchxyz = pricer.exchange_time(
        decomp.edge_bytes(nz=nz, itemsize=itemsize, rank=rank),
        mixmode=mixmode,
        n_ranks=decomp.n_ranks,
    )
    if ds_decomp is None:
        texchxy = pricer.exchange_time(
            decomp.edge_bytes(nz=1, width=1, itemsize=itemsize, rank=rank),
            n_ranks=decomp.n_ranks,
        )
    else:
        texchxy = pricer.exchange_time(
            ds.edge_bytes(nz=1, width=1, itemsize=itemsize, rank=ds.critical_rank)
        )
    if pricer is model:
        tgsum = model.gsum_time(n_nodes, smp=mixmode)
    else:
        tgsum = pricer.gsum_time(n_nodes, gsum_nbytes, smp=mixmode)
    algorithm = "butterfly" if _tailored(model) else "mpi-fit"
    return CommTerms(tgsum, texchxy, texchxyz, algorithm)


@dataclass(frozen=True)
class PfppRow:
    """One machine at one node count: its three communication terms and
    the Pfpp ceilings eqs. (14)-(15) make of them — a row of Fig. 12, of
    the best-collectives extension or of the topology scoreboard."""

    #: interconnect (Fig. 12) or machine shape (scoreboard).
    name: str
    n_nodes: int
    #: PS process grid ``(px, py)``.
    grid: tuple[int, int]
    gsum_algorithm: str
    tgsum: float
    texchxy: float
    texchxyz: float
    pfpp_ps: float
    pfpp_ds: float
    #: weak-scaling growth of the global grid vs the reference config.
    area_scale: float = 1.0
    #: wire precision the row is priced at ("all64" unless a
    #: mixed-precision config narrowed the payloads).
    precision: str = "all64"
    #: fabric geometry, on scoreboard rows.
    max_hops: Optional[int] = None
    bisection_bandwidth: Optional[float] = None

    @property
    def topology(self) -> str:
        """Scoreboard spelling of :attr:`name`."""
        return self.name


#: Levels of the reference atmosphere (nxyz = 32 x 16 x 10 = 5120).
_ATM_NZ = 10


def _row(
    name: str,
    terms: CommTerms,
    decomp: Decomposition,
    scale: float = 1.0,
    **machine,
) -> PfppRow:
    """Eqs. (14)-(15) over one configuration's terms with Fig. 11's
    atmosphere point counts, grown with the weak-scaled grid
    (``scale``)."""
    nps, nxyz = ATM_PS_PARAMS.nps, ATM_PS_PARAMS.nxyz
    nds, nxy = DS_PARAMS.nds, DS_PARAMS.nxy
    return PfppRow(
        name=name,
        n_nodes=decomp.n_ranks,
        grid=(decomp.px, decomp.py),
        gsum_algorithm=terms.gsum_algorithm,
        tgsum=terms.tgsum,
        texchxy=terms.texchxy,
        texchxyz=terms.texchxyz,
        pfpp_ps=pfpp_ps(nps, nxyz * scale, terms.texchxyz),
        pfpp_ds=pfpp_ds(nds, nxy * scale, terms.tgsum, terms.texchxy),
        area_scale=scale,
        **machine,
    )


def fig12_table(from_models: bool = True) -> list[PfppRow]:
    """Build Fig. 12 for FE / GE / Arctic.

    ``from_models=True`` computes tgsum/texch from the interconnect cost
    models (the reproduction's own numbers); ``False`` uses the paper's
    measured values verbatim.  Either way the Pfpp columns come from
    eqs. (14)-(15).  Each machine is quoted the way the paper measured
    it: Arctic on the production mapping (16 ranks mix-mode, DS and the
    2x8 global sum on the eight SMP masters), the Ethernets as flat MPI
    over all 16 ranks.
    """
    ps, _scale = reference_decomposition(16)
    if from_models:
        masters = Decomposition(REFERENCE_NX, REFERENCE_NY, 2, 4, olx=1)
        terms = {}
        for name, model in (
            ("Fast Ethernet", fast_ethernet_cost_model()),
            ("Gigabit Ethernet", gigabit_ethernet_cost_model()),
            ("Arctic", arctic_cost_model()),
        ):
            smp = _tailored(model)
            terms[name] = comm_terms(
                model, ps, _ATM_NZ, ds_decomp=masters if smp else None, mixmode=smp
            )
    else:
        terms = {
            name: CommTerms(v["tgsum"], v["texchxy"], v["texchxyz"], "measured")
            for name, v in FIG12_PAPER.items()
        }
    return [_row(name, t, ps) for name, t in terms.items()]


# -- the reference atmosphere at large N -----------------------------------

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


def reference_decomposition(n_ranks: int) -> tuple[Decomposition, float]:
    """The reference atmosphere decomposition at ``n_ranks`` ranks.

    Weak-scales the 128x64 global grid (doubling extents) whenever the
    per-rank tile would be smaller than the halo requires — large
    machines run proportionally larger problems, as every cited
    large-N machine did.  Returns ``(decomposition, area_scale)`` where
    ``area_scale`` is the global-grid growth factor relative to the
    reference configuration (1.0 up to N=256), used to scale the
    per-level point counts in eqs. (14)-(15).  Halos are the model's
    three points.
    """
    olx = 3
    px, py = reference_process_grid(n_ranks)
    nx, ny = REFERENCE_NX, REFERENCE_NY
    while nx // px <= olx:
        nx *= 2
    while ny // py <= olx:
        ny *= 2
    scale = (nx * ny) / float(REFERENCE_NX * REFERENCE_NY)
    return Decomposition(nx, ny, px, py, olx=olx), scale


def _tuned_row(
    name, model, tuner, decomp, scale, itemsize=8, gsum_nbytes=8, **machine
) -> PfppRow:
    """The reference atmosphere on ``model``, flat over ``decomp``, with
    the tuner's best-known allreduce as the global sum — except on a
    shared medium, which keeps its measured MPI fit (no byte term, so
    ``gsum_nbytes`` cannot move it)."""
    terms = comm_terms(model, decomp, _ATM_NZ, itemsize=itemsize)
    if not model.shared_medium:
        plan = tuner.plan("allreduce", decomp.n_ranks, gsum_nbytes)
        terms = terms._replace(tgsum=plan.predicted_s, gsum_algorithm=plan.algorithm)
    return _row(name, terms, decomp, scale, **machine)


def best_collectives_table(
    n_values: tuple[int, ...] = (16, 64, 256),
) -> list[PfppRow]:
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
    return [
        _tuned_row(model.name, model, tuner, *reference_decomposition(n))
        for n in n_values
    ]


def topology_scoreboard(
    topologies: tuple[str, ...] = None,
    n_values: tuple[int, ...] = (256, 1024, 4096),
    itemsize: int = 8,
    gsum_nbytes: int = 8,
    precision: str = "all64",
) -> list[PfppRow]:
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
        for name in names:
            topo = make_topology(name, n)
            rows.append(
                _tuned_row(
                    topo.name,
                    topo.cost_model(),
                    Autotuner(topology=topo),
                    decomp,
                    scale,
                    itemsize,
                    gsum_nbytes,
                    precision=precision,
                    max_hops=topo.max_hop_distance(),
                    bisection_bandwidth=topo.bisection_bandwidth(),
                )
            )
    return rows
