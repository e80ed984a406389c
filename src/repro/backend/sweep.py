"""Large-N interconnect sweeps: where the cheap tiers earn their keep.

The paper's Fig. 11/12 analysis asks, for a given interconnect, what
per-processor floating-point rate the communication phases *permit*
(Pfpp, eqs. 14-15).  The reproduction can now ask the same question far
beyond the 16-node Hyades: scale the paper's reference tile
(32 x 16 x 10 cells per processor — the nxyz = 5120 of eq. 14) weakly
out to thousands of nodes and quote the halo-exchange and global-sum
costs from a :class:`~repro.backend.CommBackend`.

On the analytic tier each sweep point is a handful of closed-form
evaluations — N = 4096 takes milliseconds.  On the DES tier the same
point requires instantiating a 4096-endpoint Arctic fat tree and
pushing every butterfly beacon through it packet by packet, which is
exactly the infeasibility the fidelity-switchable backend exists to
route around (``benchmarks/bench_backend.py`` counts the simulations
and engine events a DES point costs on the small N where it completes).
"""

from __future__ import annotations

from typing import Sequence

from repro.parallel.tiling import Decomposition

from .base import resolve_backend

#: The paper's reference per-processor PS tile: 32 x 16 columns, 10
#: levels -> nxyz = 5120 grid points (eq. 14's workload term).
REF_TILE = (32, 16)
REF_NZ = 10

#: Default node counts for :func:`large_sweep` — Hyades (16) out to the
#: N = 4096 machine the DES tier cannot reach.
SWEEP_N_VALUES = (16, 64, 256, 1024, 4096)


def sweep_point(
    n_nodes: int,
    backend=None,
    tile: tuple[int, int] = REF_TILE,
    nz: int = REF_NZ,
) -> dict:
    """Evaluate one weak-scaled configuration at ``n_nodes`` processors.

    The global grid is the reference tile replicated over the
    near-square power-of-two process grid, so per-processor work is
    constant and the interconnect terms carry all the N-dependence: the
    3-D halo exchange (texchxyz), the 2-D width-1 exchange (texchxy) and
    the N-way global sum (tgsum) are quoted from ``backend`` flat over
    all ranks (:func:`~repro.core.pfpp.comm_terms`), then fed to
    eqs. (14)-(15).  Returns a JSON-ready row of quoted (virtual-time)
    quantities only, so equal inputs give equal rows; what a quote costs
    the host is measured by ``perf/`` (``quote_sweep``).
    """
    # imported lazily: repro.core reaches back into the backend package
    # for its report sections
    from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS
    from repro.core.pfpp import comm_terms, pfpp_ds, pfpp_ps, reference_process_grid

    if not isinstance(n_nodes, int) or n_nodes < 2 or n_nodes & (n_nodes - 1):
        raise ValueError(
            f"n_nodes must be a power of two >= 2 (one node exchanges "
            f"nothing, so Pfpp is undefined), got {n_nodes!r}"
        )
    be = resolve_backend(backend)
    px, py = reference_process_grid(n_nodes)
    tnx, tny = tile
    decomp = Decomposition(tnx * px, tny * py, px, py, olx=1)
    tgsum, texchxy, texchxyz, _ = comm_terms(be, decomp, nz)
    nxyz = tnx * tny * nz
    nxy = tnx * tny * 2  # the DS tile holds two PS tiles (nxy = 1024)
    return {
        "n_nodes": n_nodes,
        "grid": [tnx * px, tny * py],
        "process_grid": [px, py],
        "backend": be.name,
        "tgsum_s": tgsum,
        "texchxy_s": texchxy,
        "texchxyz_s": texchxyz,
        "pfpp_ps_flops": pfpp_ps(ATM_PS_PARAMS.nps, nxyz, texchxyz),
        "pfpp_ds_flops": pfpp_ds(DS_PARAMS.nds, nxy, tgsum, texchxy),
    }


def large_sweep(
    n_values: Sequence[int] = SWEEP_N_VALUES,
    backend="analytic",
    tile: tuple[int, int] = REF_TILE,
    nz: int = REF_NZ,
) -> dict:
    """Sweep Pfpp over ``n_values`` processors on one backend tier.

    The default reaches N = 4096 on the analytic tier in well under a
    second; substituting ``backend="des"`` at that scale is the
    experiment the backend API exists to make unnecessary.  Returns a
    JSON-ready report with one :func:`sweep_point` row per N.
    """
    be = resolve_backend(backend)
    return {
        "backend": be.name,
        "tile": list(tile),
        "nz": nz,
        "rows": [sweep_point(n, be, tile=tile, nz=nz) for n in n_values],
    }

