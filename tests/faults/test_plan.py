"""FaultPlan as pure data: validation, determinism, and exact round-trips
through a campaign job's scenario parameters."""

import json
import random

import pytest

from repro.faults import (
    BandwidthEvent,
    DegradationSchedule,
    FaultPlan,
    JitterEvent,
    SlowdownEvent,
    StallEvent,
)
from repro.faults.campaign import SCENARIO_KINDS, TIMING_FRACS, Scenario, build_plan


def random_scenario(rng):
    """A campaign scenario drawn at random over every kind and field."""
    kind = rng.choice(SCENARIO_KINDS)
    return Scenario(
        kind=kind,
        tier=rng.choice(("des", "analytic", "hybrid")),
        n_ranks=2 * rng.randrange(2, 9),
        magnitude=0.0 if kind in ("stall", "crash") else rng.uniform(1.0, 16.0),
        timing=rng.choice(sorted(TIMING_FRACS)),
        seed=rng.getrandbits(16),
        mitigate=rng.random() < 0.5,
        stages=rng.randrange(2, 20),
        checkpoint_every=rng.randrange(1, 6),
    )


def through_job_spec(sc):
    """The scenario as a service job spec carries it: JSON parameters."""
    return Scenario.from_params(json.loads(json.dumps(sc.to_params())))


class TestRoundTrip:
    """A fault plan travels to a campaign worker as its scenario's
    parameters and is rebuilt there by ``build_plan``."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_plans_round_trip_exactly(self, seed):
        rng = random.Random(seed)
        sc, horizon = random_scenario(rng), rng.uniform(1e-3, 2.0)
        assert build_plan(through_job_spec(sc), horizon) == build_plan(sc, horizon)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_preserves_behaviour_not_just_equality(self, seed):
        rng = random.Random(seed)
        sc, horizon = random_scenario(rng), rng.uniform(1e-3, 2.0)
        plan = build_plan(sc, horizon)
        clone = build_plan(through_job_spec(sc), horizon)
        assert clone.degrading == plan.degrading
        for link in ("niu0^", "niu1^", "R1.0.2->R0.0.1", "x"):
            assert clone.model_for(link) == plan.model_for(link)
            assert clone.link_seed(link) == plan.link_seed(link)
        a, b = DegradationSchedule(plan), DegradationSchedule(clone)
        for t in (0.0, 0.3 * horizon, 0.6 * horizon, horizon):
            assert a.cpu_factor(1, t) == b.cpu_factor(1, t)
            assert a.wire(1, t) == b.wire(1, t)

    def test_empty_plan_round_trips(self):
        # A job spec holding only the required fields rebuilds the same
        # scenario and plan; a plan with no events degrades nothing.
        sc = Scenario(kind="stall", tier="analytic", n_ranks=4)
        assert through_job_spec(sc) == sc
        assert build_plan(through_job_spec(sc), 1.0) == build_plan(sc, 1.0)
        assert not FaultPlan().degrading

    def test_from_dict_tolerates_missing_keys(self):
        # A job spec written before a scenario field existed rebuilds
        # with that field's default.
        sc = Scenario.from_params({"kind": "stall", "tier": "analytic", "n_ranks": 4})
        assert sc == Scenario(kind="stall", tier="analytic", n_ranks=4)
        assert build_plan(sc, 1.0).stalls and not build_plan(sc, 1.0).degrading


class TestLinkSeedDeterminism:
    def test_seed_depends_only_on_plan_seed_and_name(self):
        a = FaultPlan(seed=7, drop_prob=0.2)
        b = FaultPlan(seed=7, stalls=(StallEvent(node=1, start=0.0, duration=1.0),))
        # Same (plan seed, link name) -> same stream seed, no matter
        # what else the plan contains or in what order links appear.
        for link in ("niu0^", "niu1^", "R1.0.0->R0.0.0"):
            assert a.link_seed(link) == b.link_seed(link)

    def test_distinct_links_get_distinct_streams(self):
        plan = FaultPlan(seed=7)
        seeds = {plan.link_seed(f"niu{i}^") for i in range(64)}
        assert len(seeds) == 64

    def test_distinct_plan_seeds_shift_every_link(self):
        p0, p1 = FaultPlan(seed=0), FaultPlan(seed=1)
        assert all(
            p0.link_seed(f"niu{i}^") != p1.link_seed(f"niu{i}^")
            for i in range(8)
        )


class TestValidation:
    def test_probability_budget_enforced(self):
        with pytest.raises(ValueError, match="must not exceed 1"):
            FaultPlan(drop_prob=0.7, corrupt_prob=0.7)

    def test_event_validation_catches_bad_magnitudes(self):
        with pytest.raises(ValueError, match=">= 1"):
            SlowdownEvent(node=0, start=0.0, duration=1.0, factor=0.5)
        with pytest.raises(ValueError, match="positive"):
            BandwidthEvent(link="niu0^", start=0.0, duration=1.0, factor=0.0)
        with pytest.raises(ValueError, match="positive"):
            JitterEvent(node=0, start=0.0, duration=1.0, amp=0.0)
        with pytest.raises(ValueError, match="positive"):
            BandwidthEvent(link="niu0^", start=0.0, duration=-1.0, factor=0.5)

    def test_degrading_tracks_performance_faults_only(self):
        assert not FaultPlan().degrading
        assert not FaultPlan(drop_prob=0.5).degrading
        assert FaultPlan(
            slowdowns=(SlowdownEvent(node=0, start=0.0, duration=1.0, factor=2.0),)
        ).degrading
        assert FaultPlan(
            jitters=(JitterEvent(node=0, start=0.0, duration=1.0, amp=1e-6),)
        ).degrading
