"""The halo exchange run as one ``des_exec`` phase against the
hand-written per-rank exchanger it replaced (``_reference_des_spmd.py``,
kept verbatim).

Reliable mode must be indistinguishable from the oracle: same tiles,
same elapsed virtual time, same number of engine events and the same
protocol counters, on a clean fabric and under seeded drops and
corruption.  Raw mode prices slabs by the collective wire rule (PIO
below 88 B, the receiver's PCI pull billed), so only its tiles must
match.
"""

import numpy as np
import pytest

import _reference_des_spmd as reference
from repro.faults import FaultInjector, FaultPlan
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.parallel.des_spmd import DESExchanger
from repro.parallel.exchange import HaloExchanger
from repro.parallel.tiling import Decomposition

GRIDS = [(2, 2), (4, 1), (1, 2), (4, 2)]
OLX = 2


def run(exchanger_cls, px, py, width, nz, reliable, fault_seed, exchanges=2):
    """Tiles, per-exchange elapsed, engine events and reliable-layer
    counters after ``exchanges`` exchanges (interiors perturbed between
    them, so every exchange moves new data)."""
    cluster = HyadesCluster(HyadesConfig(n_nodes=px * py))
    if fault_seed is not None:
        plan = FaultPlan(seed=fault_seed, drop_prob=0.02, corrupt_prob=0.01)
        FaultInjector(cluster.fabric, plan)
    decomp = Decomposition(16, 8, px, py, olx=OLX)
    rng = np.random.default_rng(px * 10 + py)
    shape = (8, 16) if nz is None else (nz, 8, 16)
    tiles = HaloExchanger(decomp).scatter_global(rng.standard_normal(shape))
    ex = exchanger_cls(cluster, decomp, reliable=reliable)
    elapsed = []
    for k in range(exchanges):
        elapsed.append(ex.exchange(tiles, width=width))
        for a in tiles:
            a[..., OLX:-OLX, OLX:-OLX] += k + 1.0
    return tiles, elapsed, cluster.engine.events_executed, ex.reliability_stats()


def cases():
    for px, py in GRIDS:
        for width in (1, OLX):
            for nz in (None, 3):
                yield pytest.param(
                    px, py, width, nz, id=f"{px}x{py}-w{width}-{'3d' if nz else '2d'}"
                )


@pytest.mark.parametrize("px, py, width, nz", list(cases()))
@pytest.mark.parametrize("fault_seed", [None, 41], ids=["clean", "faulty"])
def test_reliable_mode_matches_the_oracle_bitwise(px, py, width, nz, fault_seed):
    new = run(DESExchanger, px, py, width, nz, True, fault_seed)
    old = run(reference.DESExchanger, px, py, width, nz, True, fault_seed)
    for a, b in zip(new[0], old[0]):
        assert a.tobytes() == b.tobytes()
    assert new[1:] == old[1:]
    if fault_seed is not None and px * py > 2:
        assert new[3]["retransmissions"] > 0


@pytest.mark.parametrize("px, py, width, nz", list(cases()))
def test_raw_mode_tiles_match_the_oracle(px, py, width, nz):
    new = run(DESExchanger, px, py, width, nz, False, None)
    old = run(reference.DESExchanger, px, py, width, nz, False, None)
    for a, b in zip(new[0], old[0]):
        assert a.tobytes() == b.tobytes()
    assert all(t > 0 for t in new[1])
