"""Analytic cost model + autotuner: calibration, crossover, caching."""

import pytest

from repro.backend import AnalyticBackend
from repro.collectives import Autotuner, cost_table, schedule_cost
from repro.collectives.schedules import build
from repro.core.pfpp import best_collectives_table
from repro.network.costmodel import ARCTIC_GSUM_MEASURED
from repro.network.packet import Priority
from repro.parallel.runtime import LockstepRuntime
from repro.parallel.tiling import Decomposition


class TestCalibration:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_butterfly_gsum_within_10pct_of_paper(self, n):
        """The tuned doubleword allreduce must reproduce the measured
        Fig. 8 global-sum latencies (4.0/8.3/12.8/18.2 us)."""
        t = Autotuner().allreduce_time(n, 8)
        assert t == pytest.approx(ARCTIC_GSUM_MEASURED[n], rel=0.10)

    def test_butterfly_cost_is_422ns_rounds(self):
        # os(8) + GSUM_SW_COST + or(8) = 0.36 + 2.00 + 1.86 us per round
        t = schedule_cost(build("allreduce", "butterfly", 16, 8))
        assert t == pytest.approx(4 * 4.22e-6, rel=1e-6)

    def test_barrier_priced_like_dataless_gsum(self):
        t = Autotuner().barrier_time(16)
        assert t == pytest.approx(ARCTIC_GSUM_MEASURED[16], rel=0.10)

    def test_trivial_sizes(self):
        tuner = Autotuner()
        assert tuner.allreduce_time(1) == 0.0
        assert tuner.barrier_time(1) == 0.0


class TestSelection:
    def test_small_messages_pick_butterfly(self):
        plan = Autotuner().plan("allreduce", 16, 8)
        assert plan.algorithm == "butterfly"

    def test_large_messages_switch_to_reduce_scatter_allgather(self):
        """The tuner must demonstrably switch algorithms with size."""
        tuner = Autotuner()
        assert tuner.plan("allreduce", 16, 8).algorithm == "butterfly"
        big = tuner.plan("allreduce", 16, 65536)
        assert big.algorithm == "reduce_scatter_allgather"
        assert big.costs["reduce_scatter_allgather"] < big.costs["butterfly"]

    def test_crossover_visible_in_cost_table(self):
        sizes = [8, 65536]
        table = cost_table("allreduce", 16, sizes)
        small = min(table, key=lambda a: table[a][0])
        large = min(table, key=lambda a: table[a][1])
        assert small != large

    def test_non_pow2_excludes_rsag(self):
        plan = Autotuner().plan("allreduce", 12, 65536)
        assert "reduce_scatter_allgather" not in plan.costs
        assert plan.algorithm in plan.costs

    def test_high_priority_minimizes_rounds(self):
        tuner = Autotuner()
        hi = tuner.plan("allreduce", 16, 262144, priority=Priority.HIGH)
        lo = tuner.plan("allreduce", 16, 262144, priority="low")
        assert hi.n_rounds <= lo.n_rounds
        assert lo.predicted_s <= hi.predicted_s

    def test_priority_accepts_strings(self):
        plan = Autotuner().plan("barrier", 8, priority="high")
        assert plan.priority is Priority.HIGH
        with pytest.raises(ValueError):
            Autotuner().plan("barrier", 8, priority="urgent")


class TestCaching:
    def test_plans_are_cached_per_key(self):
        tuner = Autotuner()
        a = tuner.plan("allreduce", 8, 8)
        b = tuner.plan("allreduce", 8, 8)
        assert a is b
        tuner.plan("allreduce", 8, 8, priority="high")
        info = tuner.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2 and info["size"] == 2


class TestBackendKwarg:
    def test_backend_and_model_are_exclusive(self):
        from repro.network.costmodel import arctic_cost_model

        with pytest.raises(ValueError, match="not both"):
            Autotuner(arctic_cost_model(), backend="analytic")

    def test_backend_kwarg_supplies_the_model(self):
        be = AnalyticBackend()
        assert Autotuner(backend=be).model is be.model


class TestRuntimeWiring:
    def test_runtime_charges_tuned_gsum(self):
        decomp = Decomposition(16, 16, 4, 4)
        tuned = LockstepRuntime(decomp, backend=AnalyticBackend(tuner=Autotuner()))
        plain = LockstepRuntime(decomp)
        assert tuned.global_sum([1.0] * 16) == plain.global_sum([1.0] * 16)
        # both charge a 16-way gsum within 10% of the measured latency
        for rt in (tuned, plain):
            assert rt.stats[0].gsum_time == pytest.approx(
                ARCTIC_GSUM_MEASURED[16], rel=0.10
            )

    def test_runtime_barrier_uses_tuner(self):
        decomp = Decomposition(16, 16, 4, 4)
        rt = LockstepRuntime(decomp, backend=AnalyticBackend(tuner=Autotuner()))
        rt.barrier()
        assert rt.elapsed == pytest.approx(Autotuner().barrier_time(16))


class TestBestCollectivesPfpp:
    def test_rows_cover_requested_sizes(self):
        rows = best_collectives_table()
        assert [r.n_nodes for r in rows] == [16, 64, 256]
        for r in rows:
            assert r.tgsum > 0 and r.pfpp_ps > 0 and r.pfpp_ds > 0
            assert r.gsum_algorithm in (
                "butterfly", "tree", "ring", "reduce_scatter_allgather"
            )

    def test_gsum_grows_logarithmically(self):
        rows = best_collectives_table()
        t = {r.n_nodes: r.tgsum for r in rows}
        # +2 rounds per 4x nodes at doubleword sizes
        assert t[64] - t[16] == pytest.approx(t[256] - t[64], rel=0.05)

    def test_unknown_node_count_rejected(self):
        with pytest.raises(ValueError, match="process grid"):
            best_collectives_table(n_values=(48,))


class TestTopologyAwareCosts:
    """schedule_cost(topology=...) prices legs with real hop distances."""

    def test_topology_none_unchanged(self):
        from repro.collectives.cost import schedule_cost
        from repro.collectives.schedules import build

        sch = build("allreduce", "butterfly", 16, 8)
        assert schedule_cost(sch) == schedule_cost(sch, topology=None)

    def test_tuner_uses_topology_model(self):
        from repro.collectives.tuner import Autotuner
        from repro.network.topology import make_topology

        topo = make_topology("torus2d", 16)
        tuner = Autotuner(topology=topo)
        assert tuner.model.name == topo.cost_model().name
        plan = tuner.plan("allreduce", 16, 8)
        assert plan.predicted_s > 0

    def test_schedule_larger_than_machine_rejected(self):
        from repro.collectives.cost import schedule_cost
        from repro.collectives.schedules import build
        from repro.network.errors import TopologyError
        from repro.network.topology import make_topology

        sch = build("allreduce", "butterfly", 32, 8)
        with pytest.raises(TopologyError):
            schedule_cost(sch, topology=make_topology("fattree", 16))

    def test_distance_matters_on_grid(self):
        """The same schedule must cost more on a machine where its legs
        span more hops: price one far-pair send on a torus vs charging
        the fat tree's flat latency."""
        from repro.collectives.cost import schedule_cost
        from repro.collectives.schedules import build
        from repro.network.topology import make_topology

        sch = build("allreduce", "butterfly", 64, 65536)
        torus = make_topology("torus2d", 64)
        xbar = make_topology("hypercrossbar", 64)
        # 300 MB/s crossbar links vs 25 MB/s serial torus links at bulk
        # payloads: the hardware difference must dominate
        assert schedule_cost(sch, topology=torus) > schedule_cost(
            sch, topology=xbar
        )
