"""Chaos harness: determinism of the campaign pieces, plus one small
real campaign (subprocess service under seeded SIGKILL fire)."""

import pytest

from repro.service import ChaosConfig, ChaosReport, build_ensemble, chaos, run_chaos
from repro.service.chaos import expected_outcomes


class TestEnsembleConstruction:
    def test_build_is_seed_deterministic(self):
        a = build_ensemble(20, seed=7)
        b = build_ensemble(20, seed=7)
        assert [s.job_id for s in a] == [s.job_id for s in b]
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
        assert [s.job_id for s in build_ensemble(20, seed=8)] != [
            s.job_id for s in a
        ]

    def test_mix_has_pathological_members(self):
        specs = build_ensemble(24, seed=0)
        kinds = [s.kind for s in specs]
        assert len(specs) == 24
        assert kinds.count("flaky") == 2
        assert kinds.count("fail") == 1
        assert kinds.count("wedge") == 1
        assert kinds.count("ocean") == 20

    def test_expected_outcomes_cover_every_member(self):
        specs = build_ensemble(8, seed=1)
        expected = expected_outcomes(specs)
        assert set(expected) == {s.job_id for s in specs}
        for spec in specs:
            status, digest = expected[spec.job_id]
            if spec.kind in ("fail", "wedge"):
                assert status == "quarantined" and digest is None
            else:
                assert status == "completed" and digest


class TestReportVerdict:
    def test_ok_requires_full_accounting(self):
        good = ChaosReport(n_jobs=3, completed=2, quarantined=1)
        assert good.ok
        assert ChaosReport(n_jobs=0).ok is False
        assert ChaosReport(n_jobs=3, completed=2, quarantined=0).ok is False
        assert ChaosReport(
            n_jobs=3, completed=2, quarantined=1, lost=["x"]
        ).ok is False
        assert ChaosReport(
            n_jobs=3, completed=2, quarantined=1, mismatched=["x"]
        ).ok is False

    def test_render_names_the_failures(self):
        report = ChaosReport(
            n_jobs=2, completed=1, quarantined=0, lost=["gone"],
            mismatched=["bad"],
        )
        text = report.render()
        assert "FAIL" in text and "gone" in text and "bad" in text


@pytest.mark.slow
def test_small_chaos_campaign_passes(tmp_path, monkeypatch):
    """The acceptance property at reduced scale: SIGKILL workers and the
    service itself; every job still completes bit-exact or quarantines."""
    for name, value in [("KILL_WORKER_PROB", 0.5), ("SERVICE_KILL_PERIOD_S", 1.5),
                        ("MAX_SERVICE_KILLS", 1), ("CALM_AFTER_FRACTION", 0.3)]:
        monkeypatch.setattr(chaos, name, value)
    config = ChaosConfig(
        seed=3,
        n_jobs=7,  # < 8: no wedge member, keeps the campaign quick
        workers=2,
        max_wall_s=60.0,
        heartbeat_timeout_s=1.0,
        deadline_s=15.0,
        max_attempts=6,
    )
    report = run_chaos(tmp_path, config)
    assert report.ok, report.render()
    assert report.completed + report.quarantined == 7
    assert report.worker_kills + report.service_kills >= 1, (
        "campaign must actually have killed something"
    )
    assert report.journal_records > 0
