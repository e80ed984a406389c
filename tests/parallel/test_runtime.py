"""Tests for the lockstep BSP runtime's virtual-time accounting."""

import numpy as np
import pytest

from repro.parallel.runtime import LockstepRuntime, MachineModel
from repro.parallel.tiling import Decomposition

US = 1e-6


def make_runtime(px=4, py=4, cpus_per_node=2, olx=3):
    d = Decomposition(128, 64, px, py, olx=olx)
    return LockstepRuntime(d, cpus_per_node=cpus_per_node)


class TestComputeCharging:
    def test_uniform_flops(self):
        rt = make_runtime()
        rt.charge_compute(50e6, phase="ps")  # one second at Fps
        assert rt.elapsed == pytest.approx(1.0)
        assert rt.total_flops() == 16 * 50e6

    def test_ds_phase_uses_fds(self):
        rt = make_runtime()
        rt.charge_compute(60e6, phase="ds")
        assert rt.elapsed == pytest.approx(1.0)

    def test_unknown_phase_rejected(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.charge_compute(1.0, phase="xx")

    def test_heterogeneous_flops_slowest_wins(self):
        rt = make_runtime()
        flops = np.zeros(16)
        flops[3] = 100e6
        rt.charge_compute(flops, phase="ps")
        assert rt.elapsed == pytest.approx(2.0)

    def test_custom_machine_model(self):
        d = Decomposition(128, 64, 4, 4, olx=3)
        rt = LockstepRuntime(d, machine=MachineModel(fps=100e6, fds=120e6))
        rt.charge_compute(100e6, phase="ps")
        assert rt.elapsed == pytest.approx(1.0)


class TestExchangeAccounting:
    def test_3d_exchange_cost_matches_fig11(self):
        """One 3-D field exchange at the reference config, mix-mode:
        the 1640 us of Fig. 11 (within model tolerance)."""
        rt = make_runtime()
        fields = [t.alloc3d(10) for t in rt.decomp.tiles]
        rt.exchange(fields)
        # interior tiles pay the full 4-neighbour cost
        worst = max(st.exchange_time for st in rt.stats)
        assert worst == pytest.approx(1640 * US, rel=0.05)

    def test_five_field_ps_exchange(self):
        rt = make_runtime()
        fields = [[t.alloc3d(10) for t in rt.decomp.tiles] for _ in range(5)]
        rt.exchange(fields)
        worst = max(st.exchange_time for st in rt.stats)
        assert worst == pytest.approx(5 * 1640 * US, rel=0.05)
        assert rt.stats[0].n_exchanges == 5

    def test_exchange_moves_data(self):
        rt = make_runtime(px=2, py=2, olx=1)
        fields = [t.alloc2d() for t in rt.decomp.tiles]
        for r, f in enumerate(fields):
            f[rt.decomp.tile(r).interior] = float(r)
        rt.exchange(fields)
        o = rt.decomp.olx
        t0 = rt.decomp.tile(0)
        # tile 0's east halo came from tile 1's interior
        assert fields[0][o, o + t0.nx] == 1.0

    def test_wall_tiles_cheaper_than_interior(self):
        rt = make_runtime()
        fields = [t.alloc3d(10) for t in rt.decomp.tiles]
        rt.exchange(fields)
        # rank 0 sits on the south wall: 3 neighbours, not 4
        assert rt.stats[0].exchange_time < max(s.exchange_time for s in rt.stats)


class TestExchangeArgumentForms:
    """One field or several must never be a guess: ``n_ranks`` arrays of
    shape ``(n_ranks, ny, nx)`` used to be read as one field's tiles, so
    two rank-stacked 2-D fields on two ranks traded halos with each
    other and counted one exchange."""

    def stacked(self, decomp, base):
        o = decomp.olx
        t = decomp.tile(0)
        a = np.zeros((decomp.n_ranks, t.ny + 2 * o, t.nx + 2 * o))
        for r in range(decomp.n_ranks):
            a[r][decomp.tile(r).interior] = base + r
        return a

    def east_halo(self, decomp, field):
        o = decomp.olx
        return field[0][o, o + decomp.tile(0).nx]

    def test_as_many_stacked_fields_as_ranks_is_rejected(self):
        rt = make_runtime(px=2, py=1, olx=1)
        a, b = self.stacked(rt.decomp, 10.0), self.stacked(rt.decomp, 20.0)
        with pytest.raises(ValueError, match="rank-stacked"):
            rt.exchange([a, b])
        assert self.east_halo(rt.decomp, a) == 0.0  # nothing moved
        assert rt.stats[0].n_exchanges == 0

    @pytest.mark.parametrize("n_fields", [2, 3])
    def test_stacked_fields_keep_to_themselves(self, n_fields):
        rt = make_runtime(px=2, py=1, olx=1)
        fields = [self.stacked(rt.decomp, 10.0 * (i + 1)) for i in range(n_fields)]
        rt.exchange([list(f) for f in fields] if n_fields == 2 else fields)
        for i, f in enumerate(fields):
            # rank 0's east halo is rank 1's interior of the same field
            assert self.east_halo(rt.decomp, f) == 10.0 * (i + 1) + 1
        assert rt.stats[0].n_exchanges == n_fields

    def test_one_field_as_a_stack_or_as_tiles(self):
        rt = make_runtime(px=2, py=1, olx=1)
        a, b = self.stacked(rt.decomp, 10.0), self.stacked(rt.decomp, 10.0)
        rt.exchange(a)
        rt.exchange(list(b))
        np.testing.assert_array_equal(a, b)
        assert self.east_halo(rt.decomp, a) == 11.0
        assert rt.stats[0].n_exchanges == 2

    def test_tiles_as_deep_as_the_rank_count_need_the_list_form(self):
        rt = make_runtime(px=2, py=1, olx=1)
        tiles = [t.alloc3d(rt.n_ranks) for t in rt.decomp.tiles]
        with pytest.raises(ValueError):
            rt.exchange(tiles)
        rt.exchange([tiles])
        assert rt.stats[0].n_exchanges == 1


class TestGlobalSumAccounting:
    def test_value_and_cost(self):
        rt = make_runtime()  # 16 ranks on 8 SMPs
        result = rt.global_sum([1.0] * 16)
        assert result == pytest.approx(16.0)
        # 2x8-way mix-mode global sum: 13.5 us (Fig. 11).
        assert rt.stats[0].gsum_time == pytest.approx(13.5 * US)

    def test_single_cpu_per_node_uses_flat_table(self):
        rt = make_runtime(cpus_per_node=1)
        rt.global_sum([0.0] * 16)
        assert rt.stats[0].gsum_time == pytest.approx(18.2 * US)

    def test_gsum_synchronizes_clocks(self):
        rt = make_runtime()
        flops = np.zeros(16)
        flops[0] = 50e6
        rt.charge_compute(flops, phase="ps")
        rt.global_sum([0.0] * 16)
        assert np.allclose(rt.clocks, rt.clocks[0])
        assert rt.elapsed == pytest.approx(1.0 + 13.5 * US)

    def test_sync_time_recorded_for_fast_ranks(self):
        rt = make_runtime()
        flops = np.zeros(16)
        flops[0] = 50e6
        rt.charge_compute(flops, phase="ps")
        rt.global_sum([0.0] * 16)
        assert rt.stats[1].sync_time == pytest.approx(1.0)
        assert rt.stats[0].sync_time == pytest.approx(0.0)


class TestRuntimeMisc:
    def test_sustained_flops(self):
        rt = make_runtime()
        rt.charge_compute(50e6, phase="ps")
        # no communication: sustained = 16 * Fps
        assert rt.sustained_flops() == pytest.approx(16 * 50e6)

    def test_summary_keys(self):
        rt = make_runtime()
        rt.charge_compute(1e6, phase="ps")
        s = rt.summary()
        for key in ("elapsed", "compute_time", "exchange_time", "gsum_time", "sustained_flops"):
            assert key in s

    def test_barrier_syncs(self):
        rt = make_runtime()
        flops = np.zeros(16)
        flops[5] = 5e6
        rt.charge_compute(flops, phase="ps")
        rt.barrier()
        assert np.allclose(rt.clocks, rt.clocks[0])

    def test_invalid_cpus_per_node(self):
        d = Decomposition(128, 64, 4, 4)
        with pytest.raises(ValueError):
            LockstepRuntime(d, cpus_per_node=0)
        with pytest.raises(ValueError):
            LockstepRuntime(d, cpus_per_node=3)

    def test_elapsed_zero_initially(self):
        assert make_runtime().elapsed == 0.0
        assert make_runtime().sustained_flops() == 0.0
