"""End-to-end validation: real data through the simulated hardware.

The DES-hosted halo exchange must be *bit-identical* to the functional
NumPy exchange — every byte of every halo rode VI packets through the
fat tree's routers to get there.
"""

import re

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.parallel.des_collectives import des_exchange
from repro.parallel.des_spmd import DESExchanger
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.tiling import Decomposition
from repro.sim.engine import DeadlockError


def setup(nx=16, ny=8, px=2, py=2, olx=2, nz=None, seed=0, n_nodes=4):
    cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes))
    decomp = Decomposition(nx, ny, px, py, olx=olx)
    rng = np.random.default_rng(seed)
    g = (
        rng.standard_normal((ny, nx))
        if nz is None
        else rng.standard_normal((nz, ny, nx))
    )
    hx = HaloExchanger(decomp)
    return cluster, decomp, hx.scatter_global(g), g


class TestDESExchangeCorrectness:
    def test_bitwise_identical_to_functional_2d(self):
        cluster, decomp, tiles_des, g = setup()
        tiles_ref = HaloExchanger(decomp).scatter_global(g)
        exchange_halos(decomp, tiles_ref)
        ex = DESExchanger(cluster, decomp)
        ex.exchange(tiles_des)
        for a, b in zip(tiles_des, tiles_ref):
            np.testing.assert_array_equal(a, b)

    def test_bitwise_identical_3d(self):
        cluster, decomp, tiles_des, g = setup(nz=3, seed=5)
        tiles_ref = HaloExchanger(decomp).scatter_global(g)
        exchange_halos(decomp, tiles_ref)
        DESExchanger(cluster, decomp).exchange(tiles_des)
        for a, b in zip(tiles_des, tiles_ref):
            np.testing.assert_array_equal(a, b)

    def test_partial_width(self):
        cluster, decomp, tiles_des, g = setup(olx=3, seed=7)
        tiles_ref = HaloExchanger(decomp).scatter_global(g)
        exchange_halos(decomp, tiles_ref, width=1)
        DESExchanger(cluster, decomp).exchange(tiles_des, width=1)
        for a, b in zip(tiles_des, tiles_ref):
            np.testing.assert_array_equal(a, b)

    def test_repeated_exchanges(self):
        cluster, decomp, tiles, g = setup(seed=9)
        ex = DESExchanger(cluster, decomp)
        ex.exchange(tiles)
        snapshot = [a.copy() for a in tiles]
        ex.exchange(tiles)  # idempotent on unchanged interiors
        for a, b in zip(tiles, snapshot):
            np.testing.assert_array_equal(a, b)

    def test_strip_decomposition_with_self_wrap(self):
        cluster, decomp, tiles_des, g = setup(px=4, py=1, olx=2, seed=11)
        tiles_ref = HaloExchanger(decomp).scatter_global(g)
        exchange_halos(decomp, tiles_ref)
        DESExchanger(cluster, decomp).exchange(tiles_des)
        for a, b in zip(tiles_des, tiles_ref):
            np.testing.assert_array_equal(a, b)

    def test_single_column_periodic_self_wrap(self):
        """px = 1: the west/east 'neighbour' is the rank itself — the
        wrap goes through shared memory, not the fabric."""
        cluster, decomp, tiles_des, g = setup(px=1, py=2, olx=2, seed=17)
        tiles_ref = HaloExchanger(decomp).scatter_global(g)
        exchange_halos(decomp, tiles_ref)
        DESExchanger(cluster, decomp).exchange(tiles_des)
        for a, b in zip(tiles_des, tiles_ref):
            np.testing.assert_array_equal(a, b)

    def test_elapsed_time_positive_and_sane(self):
        cluster, decomp, tiles, _ = setup(nz=4)
        elapsed = DESExchanger(cluster, decomp).exchange(tiles)
        # several kilobyte slabs + barriers: tens to hundreds of us
        assert 20e-6 < elapsed < 5e-3

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("width", [3, -1])
    def test_out_of_range_width_rejected_before_any_packet(self, width, reliable):
        """16x8 on 2x2 with olx=2: width 3 used to die mid-simulation
        reshaping a slab, width -1 asking VI for a negative transfer."""
        cluster, decomp, tiles, _ = setup()
        with pytest.raises(ValueError) as functional:
            exchange_halos(decomp, tiles, width=width)
        with pytest.raises(ValueError, match=re.escape(str(functional.value))):
            DESExchanger(cluster, decomp, reliable=reliable).exchange(tiles, width=width)
        assert cluster.engine.now == 0
        assert cluster.engine.events_executed == 0

    def test_too_many_ranks_rejected(self):
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        decomp = Decomposition(16, 8, 2, 2, olx=1)
        with pytest.raises(ValueError):
            DESExchanger(cluster, decomp)


class TestDESJacobiSweep:
    def test_des_stencil_iteration_matches_serial(self):
        """A Jacobi smoothing sweep with DES halo exchange equals the
        same sweep on the undecomposed field — real compute on really
        transported halos."""
        cluster, decomp, tiles, g = setup(nx=16, ny=8, px=2, py=2, olx=1, seed=3)
        ex = DESExchanger(cluster, decomp)
        # serial reference with periodic x, clamped y
        ref = g.copy()
        for _ in range(3):
            p = np.zeros((ref.shape[0] + 2, ref.shape[1] + 2))
            p[1:-1, 1:-1] = ref
            p[1:-1, 0] = ref[:, -1]
            p[1:-1, -1] = ref[:, 0]
            p[0, 1:-1] = ref[0]
            p[-1, 1:-1] = ref[-1]
            ref = 0.25 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])
        # tiled with DES exchange; walls handled by mirroring into halos
        o = decomp.olx
        for _ in range(3):
            ex.exchange(tiles)
            for r, t in enumerate(decomp.tiles):
                a = tiles[r]
                if decomp.neighbor(r, "south") is None:
                    a[o - 1, :] = a[o, :]
                if decomp.neighbor(r, "north") is None:
                    a[o + t.ny, :] = a[o + t.ny - 1, :]
                new = 0.25 * (
                    a[o - 1 : o + t.ny - 1, o : o + t.nx]
                    + a[o + 1 : o + t.ny + 1, o : o + t.nx]
                    + a[o : o + t.ny, o - 1 : o + t.nx - 1]
                    + a[o : o + t.ny, o + 1 : o + t.nx + 1]
                )
                a[o : o + t.ny, o : o + t.nx] = new
        got = HaloExchanger(decomp).gather_global(tiles)
        np.testing.assert_allclose(got, ref, atol=1e-14)


class TestDESExchangeOnLossyFabric:
    """A dropped VI fragment stalls ``des_exchange``; that must surface
    as the watchdog's DeadlockError naming the blocked side."""

    @staticmethod
    def _lossy_exchange(seed):
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        FaultInjector(cluster.fabric, FaultPlan(seed=seed, drop_prob=0.002))
        return des_exchange(cluster, 0, 1, 4096)

    def test_both_sides_stalled_raises(self):
        # seed 14 used to die with a bare ``max() arg is an empty sequence``
        with pytest.raises(DeadlockError, match="exchange-node0.*exchange-node1"):
            self._lossy_exchange(14)

    def test_one_side_stalled_is_not_a_success(self):
        # seed 3 used to return node 1's completion time (90.6 us)
        # although node 0 never saw its transfer complete
        with pytest.raises(DeadlockError, match="exchange-node0"):
            self._lossy_exchange(3)
