"""Halo exchange over a faulty fabric: reliable mode recovers
bit-exactly; raw mode fails loudly via the deadlock watchdog."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFaultModel
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.niu import reliable
from repro.niu.reliable import DeliveryError
from repro.parallel.des_spmd import DESExchanger
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.tiling import Decomposition
from repro.sim import DeadlockError


def setup(plan=None, nx=16, ny=8, px=2, py=2, olx=2, nz=None, seed=0):
    cluster = HyadesCluster(HyadesConfig(n_nodes=px * py))
    inj = FaultInjector(cluster.fabric, plan) if plan is not None else None
    decomp = Decomposition(nx, ny, px, py, olx=olx)
    rng = np.random.default_rng(seed)
    g = (
        rng.standard_normal((ny, nx))
        if nz is None
        else rng.standard_normal((nz, ny, nx))
    )
    tiles = HaloExchanger(decomp).scatter_global(g)
    ref = HaloExchanger(decomp).scatter_global(g)
    exchange_halos(decomp, ref)
    return cluster, decomp, tiles, ref, inj


class TestReliableExchange:
    def test_clean_fabric_bit_exact(self):
        cluster, decomp, tiles, ref, _ = setup()
        DESExchanger(cluster, decomp, reliable=True).exchange(tiles)
        for a, b in zip(tiles, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("drop", [0.001, 0.01, 0.1])
    def test_seeded_drops_bit_exact(self, drop):
        plan = FaultPlan(seed=23, drop_prob=drop)
        cluster, decomp, tiles, ref, inj = setup(plan=plan)
        ex = DESExchanger(cluster, decomp, reliable=True)
        ex.exchange(tiles)
        for a, b in zip(tiles, ref):
            np.testing.assert_array_equal(a, b)
        if drop >= 0.1:
            assert inj.injected_drops > 0
            assert ex.reliability_stats()["retransmissions"] > 0

    def test_drops_and_corruption_3d(self):
        plan = FaultPlan(seed=29, drop_prob=0.02, corrupt_prob=0.01)
        cluster, decomp, tiles, ref, _ = setup(plan=plan, nz=3, seed=4)
        DESExchanger(cluster, decomp, reliable=True).exchange(tiles)
        for a, b in zip(tiles, ref):
            np.testing.assert_array_equal(a, b)

    def test_recovery_costs_simulated_time(self):
        c0, d0, t0, _, _ = setup()
        clean = DESExchanger(c0, d0, reliable=True).exchange(t0)
        c1, d1, t1, _, _ = setup(plan=FaultPlan(seed=23, drop_prob=0.05))
        faulty = DESExchanger(c1, d1, reliable=True).exchange(t1)
        assert faulty > clean

    def test_repeated_exchanges_under_sustained_loss(self):
        plan = FaultPlan(seed=31, drop_prob=0.02)
        cluster, decomp, tiles, ref, _ = setup(plan=plan)
        ex = DESExchanger(cluster, decomp, reliable=True)
        for _ in range(3):
            ex.exchange(tiles)
        for a, b in zip(tiles, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [3, 11, 17, 41, 59])
    def test_random_fault_plans_bit_exact(self, seed):
        """Seed-derived random drop/corrupt rates: every plan must still
        deliver bit-exact halos across repeated exchanges."""
        rng = np.random.default_rng(seed)
        plan = FaultPlan(
            seed=seed,
            drop_prob=float(rng.uniform(0.005, 0.08)),
            corrupt_prob=float(rng.uniform(0.0, 0.02)),
        )
        cluster, decomp, tiles, ref, _ = setup(plan=plan, seed=seed)
        ex = DESExchanger(cluster, decomp, reliable=True)
        for _ in range(2):
            ex.exchange(tiles)
        for a, b in zip(tiles, ref):
            np.testing.assert_array_equal(a, b)

    def test_retry_exhaustion_surfaces_delivery_error(self, monkeypatch):
        monkeypatch.setattr(reliable, "BASE_RTO", 20e-6)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 3)
        plan = FaultPlan(
            seed=0, link_overrides={"niu0^": LinkFaultModel(drop_prob=1.0)}
        )
        cluster, decomp, tiles, _, _ = setup(plan=plan)
        ex = DESExchanger(cluster, decomp, reliable=True)
        with pytest.raises(DeliveryError):
            ex.exchange(tiles)


class TestRawModeFailsLoudly:
    def test_drops_raise_deadlock_naming_ranks(self):
        plan = FaultPlan(seed=23, drop_prob=0.1)
        cluster, decomp, tiles, _, _ = setup(plan=plan)
        with pytest.raises(DeadlockError, match=r"rank\d") as ei:
            DESExchanger(cluster, decomp).exchange(tiles)
        assert "blocked process(es)" in str(ei.value)

    def test_two_exchangers_share_cluster_without_crosstalk(self):
        """Two exchangers (e.g. the two isomorphs of a coupled run) on
        one cluster must not steal each other's reliable messages."""
        plan = FaultPlan(seed=37, drop_prob=0.01)
        cluster, decomp, tiles_a, ref_a, _ = setup(plan=plan, seed=1)
        _, _, tiles_b, ref_b, _ = setup(seed=2)
        ex_a = DESExchanger(cluster, decomp, reliable=True)
        ex_b = DESExchanger(cluster, decomp, reliable=True)
        ex_a.exchange(tiles_a)
        ex_b.exchange(tiles_b)
        ex_a.exchange(tiles_a)
        for a, b in zip(tiles_a, ref_a):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(tiles_b, ref_b):
            np.testing.assert_array_equal(a, b)
