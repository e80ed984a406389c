"""Per-phase metrics: recorder mechanics and the cost-model cross-check."""

import pytest

from repro.gcm.ocean import ocean_model
from repro.obs.metrics import MetricsRecorder, phase_crosscheck


class TestRecorder:
    def test_record_accumulates_by_phase_and_kind(self):
        rec = MetricsRecorder()
        rec.record("ps", "compute", 1.0, flops=50)
        rec.record("ps", "compute", 0.5, flops=25)
        rec.record("ps", "exchange", 0.25, nbytes=1024, exchanges=5)
        rec.record("ds", "gsum", 0.125, gsums=2)
        ps = rec.phase("ps")
        assert ps.compute_s == 1.5
        assert ps.flops == 75
        assert ps.exchange_s == 0.25
        assert ps.bytes == 1024
        assert ps.n_exchanges == 5
        assert rec.phase("ds").gsum_s == 0.125

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown charge kind"):
            MetricsRecorder().record("ps", "teleport", 1.0)

    def test_end_step_snapshots_deltas(self):
        rec = MetricsRecorder()
        rec.record("ps", "compute", 1.0)
        rec.end_step(ni=3)
        rec.record("ps", "compute", 2.0)
        rec.end_step(ni=5)
        assert len(rec.steps) == 2
        assert rec.steps[0].phases["ps"].compute_s == 1.0
        assert rec.steps[1].phases["ps"].compute_s == 2.0
        assert rec.steps[1].meta["ni"] == 5

    def test_per_step_means_and_skip_first(self):
        rec = MetricsRecorder()
        rec.record("ps", "compute", 4.0)
        rec.end_step()
        rec.record("ps", "compute", 2.0)
        rec.end_step()
        assert rec.per_step()["ps"]["compute_s"] == 3.0
        assert rec.per_step(skip_first=True)["ps"]["compute_s"] == 2.0


class TestModelIntegration:
    def test_model_steps_fill_the_recorder(self):
        model = ocean_model(nx=16, ny=8, nz=3, px=2, py=2, dt=1200.0)
        rec = model.runtime.attach_metrics()
        model.run(2)
        assert len(rec.steps) == 2
        assert rec.phase("ps").compute_s > 0
        assert rec.phase("ps").exchange_s > 0
        assert rec.phase("ds").gsum_s > 0
        assert rec.phase("ps").bytes > 0
        assert rec.steps[0].meta["ni"] >= 1

    def test_crosscheck_agrees_with_cost_model_within_5pct(self):
        """The acceptance gate: the telemetry's measured PS/DS
        exchange+gsum split must agree with the analytic cost model."""
        model = ocean_model(nx=32, ny=16, nz=5, px=2, py=2, dt=1200.0)
        model.runtime.attach_metrics()
        model.run(4)
        rows = phase_crosscheck(model)
        quantities = {r["quantity"] for r in rows}
        assert {"ps_exchange", "ds_exchange", "ds_gsum"} <= quantities
        for r in rows:
            assert r["measured_s"] > 0, r
            assert r["rel_err"] is not None, r
            assert abs(r["rel_err"]) < 0.05, r

    def test_crosscheck_serial_includes_ps_compute(self):
        model = ocean_model(nx=16, ny=8, nz=3, px=1, py=1, dt=1200.0)
        model.runtime.attach_metrics()
        model.run(2)
        rows = {r["quantity"]: r for r in phase_crosscheck(model)}
        assert "ps_compute" in rows
        assert abs(rows["ps_compute"]["rel_err"]) < 0.05

    def test_crosscheck_requires_recorder_and_steps(self):
        model = ocean_model(nx=16, ny=8, nz=3, px=2, py=2, dt=1200.0)
        with pytest.raises(ValueError, match="attach a MetricsRecorder"):
            phase_crosscheck(model)
