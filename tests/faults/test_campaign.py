"""The fault-campaign runner: scenarios, plans, audits, determinism."""

import json

import pytest

from repro.faults.campaign import (
    SCENARIO_KINDS,
    TIMING_FRACS,
    WINDOW_FRAC,
    Scenario,
    audit_campaign,
    audit_detector,
    build_grid,
    build_plan,
    run_scenario,
)


class TestScenario:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_params_round_trip(self, kind):
        sc = Scenario(
            kind=kind,
            tier="hybrid",
            n_ranks=8,
            magnitude=0.0 if kind == "crash" else 4.0,
            timing="early",
            seed=3,
            mitigate=(kind == "cpu_slow"),
        )
        assert Scenario.from_params(sc.to_params()) == sc

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(kind="meteor", tier="analytic", n_ranks=8)

    def test_bad_timing_rejected(self):
        with pytest.raises(ValueError, match="timing"):
            Scenario(kind="stall", tier="analytic", n_ranks=8, timing="late-ish")

    def test_ranks_must_fill_whole_nodes(self):
        with pytest.raises(ValueError, match="multiple"):
            Scenario(kind="stall", tier="analytic", n_ranks=7)

    def test_scenario_id_is_unique_across_smoke_grid(self):
        grid = build_grid(smoke=True)
        ids = [sc.scenario_id for sc in grid]
        assert len(ids) == len(set(ids))
        # Every fault kind shows up in the smoke grid.
        assert {sc.kind for sc in grid} == set(SCENARIO_KINDS)


class TestBuildPlan:
    def test_same_scenario_same_plan(self):
        sc = Scenario(kind="link_bw", tier="analytic", n_ranks=8, magnitude=4.0)
        assert build_plan(sc, horizon=1.0) == build_plan(sc, horizon=1.0)

    def test_plan_round_trips_through_job_spec_form(self):
        for kind in SCENARIO_KINDS:
            sc = Scenario(
                kind=kind, tier="des", n_ranks=8,
                magnitude=0.0 if kind == "crash" else 2.0,
            )
            spec = json.loads(json.dumps(sc.to_params()))
            assert build_plan(Scenario.from_params(spec), horizon=0.5) == build_plan(
                sc, horizon=0.5
            )

    def test_timing_places_the_window(self):
        horizon = 2.0
        for timing, frac in TIMING_FRACS.items():
            sc = Scenario(
                kind="cpu_slow", tier="analytic", n_ranks=8,
                magnitude=2.0, timing=timing,
            )
            (ev,) = build_plan(sc, horizon).slowdowns
            assert ev.start == pytest.approx(frac * horizon)

    def test_cpu_slow_window_stretches_with_magnitude(self):
        # A node slowed m-fold burns virtual time m times faster, so the
        # wall-window must scale by m to cover the same share of stages.
        horizon = 1.0
        base = WINDOW_FRAC * horizon
        for m in (2.0, 8.0):
            sc = Scenario(
                kind="cpu_slow", tier="analytic", n_ranks=8, magnitude=m
            )
            (ev,) = build_plan(sc, horizon).slowdowns
            assert ev.factor == m
            assert ev.duration == pytest.approx(base * m)

    def test_link_bw_magnitude_is_a_divisor(self):
        sc = Scenario(kind="link_bw", tier="analytic", n_ranks=8, magnitude=4.0)
        (ev,) = build_plan(sc, 1.0).degradations
        assert ev.factor == pytest.approx(0.25)


class TestDetectorAudit:
    def test_crash_is_declared_dead(self):
        sc = Scenario(kind="crash", tier="analytic", n_ranks=8)
        verdict = audit_detector(sc)
        assert verdict["declared"]
        assert verdict["declare_latency_s"] > 0

    @pytest.mark.parametrize("kind", ["cpu_slow", "link_bw", "nic_jitter", "stall"])
    def test_slow_is_never_declared_dead(self, kind):
        sc = Scenario(kind=kind, tier="analytic", n_ranks=8, magnitude=8.0)
        verdict = audit_detector(sc)
        assert not verdict["declared"]
        assert not verdict["false_positive"]

    def test_audit_is_deterministic(self):
        sc = Scenario(kind="nic_jitter", tier="analytic", n_ranks=8,
                      magnitude=4.0, seed=5)
        assert audit_detector(sc) == audit_detector(sc)


class TestRunScenario:
    def test_stall_scenario_passes_all_audits(self):
        sc = Scenario(kind="stall", tier="analytic", n_ranks=4, magnitude=4.0)
        payload = run_scenario(sc.to_params())
        assert payload["ok"], payload["audits"]
        assert payload["digest"] == payload["digest_clean"]
        assert payload["suspects"] == []

    def test_same_params_same_digest(self):
        sc = Scenario(kind="link_bw", tier="analytic", n_ranks=4, magnitude=4.0)
        a = run_scenario(sc.to_params())
        b = run_scenario(sc.to_params())
        assert a["digest"] == b["digest"]
        assert a["elapsed_fault"] == b["elapsed_fault"]

    def test_degradation_costs_time_but_not_bits(self):
        sc = Scenario(kind="cpu_slow", tier="analytic", n_ranks=4,
                      magnitude=4.0, mitigate=False)
        payload = run_scenario(sc.to_params())
        assert payload["audits"]["bit_exact"]
        assert payload["elapsed_fault"] > payload["elapsed_clean"]


class TestAuditCampaign:
    def _payloads(self, scenarios):
        return {sc.scenario_id: run_scenario(sc.to_params()) for sc in scenarios}

    def test_cross_tier_band_compares_against_des(self):
        scenarios = [
            Scenario(kind="stall", tier=tier, n_ranks=4, magnitude=4.0)
            for tier in ("des", "analytic")
        ]
        scorecard = audit_campaign(scenarios, self._payloads(scenarios))
        assert scorecard["ok"], scorecard["failures"]
        assert scorecard["n_scenarios"] == 2
        assert scorecard["max_tier_error"] <= scorecard["tier_band"]

    def test_failures_are_reported_not_swallowed(self):
        sc = Scenario(kind="stall", tier="analytic", n_ranks=4, magnitude=4.0)
        payload = run_scenario(sc.to_params())
        broken = dict(payload, ok=False,
                      audits=dict(payload["audits"], bit_exact=False))
        scorecard = audit_campaign([sc], {sc.scenario_id: broken})
        assert not scorecard["ok"]
        assert scorecard["n_fail"] == 1
        assert scorecard["failures"]

    def test_missing_result_is_a_failure(self):
        sc = Scenario(kind="stall", tier="analytic", n_ranks=4, magnitude=4.0)
        scorecard = audit_campaign([sc], {})
        assert not scorecard["ok"]
        assert scorecard["failures"][0]["audit"] == "completed"


def test_campaign_is_a_service_job_kind():
    from repro.service.jobs import JOB_KINDS

    assert "campaign" in JOB_KINDS
