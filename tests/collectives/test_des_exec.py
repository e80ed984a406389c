"""Packet-level DES execution: model cross-validation and the data path."""

import numpy as np
import pytest

from repro.collectives import Autotuner, des_run_schedule, des_time_schedule
from repro.collectives.schedules import build, candidates
from repro.collectives.semantics import reference_result, run_schedule
from repro.hardware.cluster import HyadesCluster
from repro.obs import trace


@pytest.fixture(autouse=True)
def _no_global_tracer():
    trace.stop()
    yield
    trace.stop()


class TestCrossValidation:
    """The acceptance gate: analytic cost within 10% of the DES at N=16."""

    @pytest.mark.parametrize("alg", ["butterfly", "tree", "ring",
                                     "reduce_scatter_allgather"])
    @pytest.mark.parametrize("nbytes", [8, 4096])
    def test_allreduce_model_within_10pct(self, alg, nbytes):
        sch = build("allreduce", alg, 16, nbytes)
        plan_cost = Autotuner().model
        from repro.collectives import schedule_cost

        predicted = schedule_cost(sch, plan_cost)
        des = des_time_schedule(HyadesCluster(), sch)
        assert predicted == pytest.approx(des, rel=0.10)

    @pytest.mark.parametrize("op", ["broadcast", "allgather", "barrier"])
    def test_other_ops_model_within_10pct(self, op):
        from repro.collectives import schedule_cost

        for alg in candidates(op, 16):
            sch = build(op, alg, 16, 64)
            predicted = schedule_cost(sch)
            des = des_time_schedule(HyadesCluster(), sch)
            assert predicted == pytest.approx(des, rel=0.10), (op, alg)

    def test_tuner_crossvalidate_reports_error(self):
        tuner = Autotuner()
        cv = tuner.crossvalidate(tuner.plan("allreduce", 16, 8))
        assert cv["rel_err"] <= 0.10
        assert cv["des_s"] > 0 and cv["predicted_s"] > 0


class TestTimingPath:
    def test_gsum_matches_paper_measured(self):
        des = des_time_schedule(
            HyadesCluster(), build("allreduce", "butterfly", 16, 8)
        )
        assert des == pytest.approx(18.2e-6, rel=0.10)

    def test_vi_path_engaged_for_large_payloads(self):
        small = des_time_schedule(
            HyadesCluster(), build("allreduce", "butterfly", 4, 8)
        )
        large = des_time_schedule(
            HyadesCluster(), build("allreduce", "butterfly", 4, 65536)
        )
        assert large > small * 10

    def test_rerun_on_one_cluster_times_like_a_fresh_one(self):
        """An NIU remembers every VI transfer id it has served: a second
        run whose ids repeat the first's sees its transfers complete at
        once (273.86 us instead of 277.39 us here)."""
        from repro.hardware.cluster import HyadesConfig

        sch = build("allreduce", "butterfly", 8, 4096)
        cluster = HyadesCluster(HyadesConfig(n_nodes=8))
        first = des_time_schedule(cluster, sch)
        assert first == pytest.approx(277.39e-6, abs=0.01e-6)
        assert des_time_schedule(cluster, sch) == pytest.approx(first, rel=1e-12)

    def test_emits_trace_spans(self):
        with trace.tracing() as tr:
            des_time_schedule(
                HyadesCluster(), build("allreduce", "butterfly", 4, 8)
            )
        spans = [e for e in tr.events if e.get("cat") == "collectives"]
        assert spans, "timing executor emitted no collective spans"

    def test_cluster_too_small_rejected(self):
        from repro.hardware.cluster import HyadesConfig

        with pytest.raises(ValueError, match="nodes"):
            des_time_schedule(
                HyadesCluster(HyadesConfig(n_nodes=4)),
                build("allreduce", "butterfly", 8, 8),
            )


class TestDataPath:
    def test_clean_fabric_bit_exact_vs_in_process(self):
        n = 5
        rng = np.random.default_rng(0)
        inp = [rng.standard_normal(4) for _ in range(n)]
        sch = build("allreduce", "ring", n, 32)
        got, elapsed = des_run_schedule(HyadesCluster(), sch, inp)
        ref = run_schedule(sch, inp)
        assert elapsed > 0
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()

    def test_alltoall_data_path(self):
        n = 4
        rng = np.random.default_rng(1)
        inp = [rng.standard_normal((n, 2)) for _ in range(n)]
        got, _ = des_run_schedule(
            HyadesCluster(), build("alltoall", "bruck", n, 16), inp
        )
        ref = reference_result("alltoall", inp, n)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_barrier_data_path_completes(self):
        res, elapsed = des_run_schedule(
            HyadesCluster(), build("barrier", "dissemination", 6, 0)
        )
        assert res == [None] * 6
        assert elapsed > 0

    def test_guards(self):
        from repro.hardware.cluster import HyadesConfig

        with pytest.raises(ValueError, match="64 ranks"):
            des_run_schedule(
                HyadesCluster(HyadesConfig(n_nodes=128)),
                build("barrier", "dissemination", 65, 0),
            )
