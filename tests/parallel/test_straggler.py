"""Straggler mitigation: work-based suspicion, checkpoint rebalancing."""

import numpy as np
import pytest

from repro.faults import DegradationSchedule, FaultPlan, SlowdownEvent
from repro.parallel import Decomposition, LockstepRuntime, StragglerMitigator
from repro.parallel.runtime import EWMA_ALPHA, MIN_TILES, SUSPECT_FACTOR

FLOPS = 16 * 16 * 200.0
STAGES = 12
CHECKPOINT = 4


def make_runtime(n_ranks=8, tiles_per_node=2, factor=None, victim=1):
    px = 2 if n_ranks % 2 == 0 else 1
    decomp = Decomposition(16 * px, 16 * (n_ranks // px), px, n_ranks // px)
    runtime = LockstepRuntime(
        decomp, backend="analytic", n_nodes=n_ranks // tiles_per_node
    )
    if factor:
        plan = FaultPlan(
            slowdowns=(
                SlowdownEvent(node=victim, start=0.0, duration=1e9, factor=factor),
            )
        )
        runtime.set_degradation(DegradationSchedule(plan))
    return runtime


def drive(runtime, mitigator=None, stages=STAGES):
    for stage in range(stages):
        runtime.charge_compute(FLOPS, "ps")
        runtime.global_sum([0.0] * runtime.n_ranks)
        if mitigator is not None:
            mitigator.observe()
            if stage % CHECKPOINT == CHECKPOINT - 1:
                mitigator.rebalance()
    return runtime.elapsed


class TestOverDecomposition:
    def test_n_nodes_must_divide_ranks(self):
        decomp = Decomposition(32, 32, 2, 4)
        with pytest.raises(ValueError, match="divide"):
            LockstepRuntime(decomp, backend="analytic", n_nodes=3)

    def test_nodes_cannot_outnumber_tiles_per_cpu(self):
        decomp = Decomposition(32, 32, 2, 4)
        with pytest.raises(ValueError):
            LockstepRuntime(
                decomp, backend="analytic", cpus_per_node=2, n_nodes=8
            )

    def test_tiles_time_slice_their_node(self):
        # 2 tiles per 1-CPU node run ~2x slower per stage than 1 tile
        # per node: same work, half the CPUs.
        flat = make_runtime(n_ranks=8, tiles_per_node=1)
        packed = make_runtime(n_ranks=8, tiles_per_node=2)
        t_flat = drive(flat)
        t_packed = drive(packed)
        assert t_packed > t_flat * 1.5

    def test_ownership_starts_contiguous(self):
        runtime = make_runtime(n_ranks=8, tiles_per_node=2)
        assert runtime.n_nodes == 4
        assert list(runtime.rank_owner) == [0, 0, 1, 1, 2, 2, 3, 3]


class TestSuspicion:
    def test_healthy_uniform_layout_never_suspects(self):
        runtime = make_runtime(n_ranks=8)
        mit = StragglerMitigator(runtime)
        drive(runtime, mit)
        assert mit.suspects() == []
        assert mit.moves == []

    def test_sustained_slowdown_is_suspected(self):
        runtime = make_runtime(n_ranks=8, factor=4.0)
        mit = StragglerMitigator(runtime)
        drive(runtime, mit)
        assert 1 in [n for (_, n, _) in mit.moves] or mit.suspected(1)
        assert mit._estimate[1] > mit._estimate[0]

    def test_observation_uses_charged_work_not_clocks(self):
        # After a collective every rank's *clock* is equal; only charged
        # work betrays the straggler.  If observe() read clocks, the
        # victim would never clear the suspicion threshold.
        runtime = make_runtime(n_ranks=8, factor=8.0)
        mit = StragglerMitigator(runtime)
        runtime.charge_compute(FLOPS, "ps")
        runtime.global_sum([0.0] * runtime.n_ranks)
        assert np.allclose(runtime.clocks, runtime.clocks[0])  # BSP equalized
        mit.observe()
        runtime.charge_compute(FLOPS, "ps")
        runtime.global_sum([0.0] * runtime.n_ranks)
        mit.observe()
        assert mit._estimate[1] > 2.0


class TestRebalance:
    def test_moves_shed_the_victims_tiles(self):
        runtime = make_runtime(n_ranks=8, factor=4.0)
        mit = StragglerMitigator(runtime)
        drive(runtime, mit)
        assert mit.moves, "sustained 4x slowdown must trigger a move"
        assert all(src == 1 for (_, src, _) in mit.moves)
        # The straggler keeps at least min_tiles (it must keep working).
        assert runtime.tiles_owned(1) >= MIN_TILES

    def test_mitigation_recovers_throughput(self):
        t_clean = drive(make_runtime(n_ranks=8))
        t_none = drive(make_runtime(n_ranks=8, factor=4.0))
        runtime = make_runtime(n_ranks=8, factor=4.0)
        t_mit = drive(runtime, StragglerMitigator(runtime))
        assert t_mit < t_none
        assert (t_none - t_mit) / (t_none - t_clean) > 0.2

    def test_mitigators_own_imbalance_is_not_straggling(self):
        # After shedding a tile onto a healthy node, that node runs 2
        # tiles while peers run fewer-per-CPU; the median-relative
        # discount must keep it from being suspected in turn.
        runtime = make_runtime(n_ranks=8, factor=8.0)
        mit = StragglerMitigator(runtime)
        drive(runtime, mit, stages=2 * STAGES)
        receivers = {dst for (_, _, dst) in mit.moves}
        assert receivers
        assert not any(mit.suspected(n) for n in receivers)

    def test_rebalance_without_suspects_is_a_noop(self):
        runtime = make_runtime(n_ranks=8)
        mit = StragglerMitigator(runtime)
        assert mit.rebalance() == []

    def test_decisions_are_deterministic(self):
        def run():
            runtime = make_runtime(n_ranks=16, factor=4.0)
            mit = StragglerMitigator(runtime)
            elapsed = drive(runtime, mit)
            return elapsed, mit.moves

        assert run() == run()


class TestConfigValidation:
    """The tuning is constants; these are the conditions they must meet."""

    def test_suspect_factor_must_exceed_one(self):
        # and clear the 1.5x a healthy 2-CPU node runs at with one extra tile
        assert SUSPECT_FACTOR > 1.5

    def test_ewma_alpha_range(self):
        assert 0.0 < EWMA_ALPHA <= 1.0
