"""Degradation pricing: one penalty formula, every tier, DES honesty."""

import pytest

from repro.backend import resolve_backend
from repro.faults import (
    BandwidthEvent,
    DegradationSchedule,
    FaultPlan,
    JitterEvent,
    SlowdownEvent,
)
from repro.faults.degrade import CLEAN_WIRE, FRAG_BYTES, WireDegradation


def schedule(**kwargs):
    return DegradationSchedule(FaultPlan(**kwargs))


class TestWireDegradation:
    def test_clean_wire_costs_nothing(self):
        assert CLEAN_WIRE.clean
        assert CLEAN_WIRE.transfer_penalty(1 << 20, 150e6, n_packets=64) == 0.0

    def test_bandwidth_stretch_scales_serialization(self):
        w = WireDegradation(bw_factor=0.25)
        nbytes, bw = 4096, 150e6
        # 1/4 bandwidth = 4x serialization = 3x extra on top of clean.
        assert w.transfer_penalty(nbytes, bw) == pytest.approx(
            3.0 * nbytes / bw
        )

    def test_latency_accrues_per_packet(self):
        w = WireDegradation(extra_latency=1e-6)
        assert w.transfer_penalty(4096, 150e6, n_packets=8) == pytest.approx(
            8e-6
        )

    def test_jitter_priced_at_twice_expectation(self):
        # Jitter hooks land on both link directions of a flaky node.
        w = WireDegradation(jitter_mean=1e-6)
        assert w.transfer_penalty(8, 150e6, n_packets=1) == pytest.approx(2e-6)

    def test_combine_multiplies_bw_and_adds_delays(self):
        # two events on one endpoint's wire compose in DegradationSchedule.wire
        sched = schedule(
            degradations=(
                BandwidthEvent(link="niu1^", start=0.0, duration=1.0, factor=0.5,
                               extra_latency=1e-6),
                BandwidthEvent(link="niu1^", start=0.0, duration=1.0, factor=0.5),
            ),
            jitters=(JitterEvent(node=1, start=0.0, duration=1.0, amp=4e-6),),
        )
        assert sched.wire(1, 0.5) == WireDegradation(
            bw_factor=0.25, extra_latency=1e-6, jitter_mean=2e-6
        )


class TestSchedule:
    def test_cpu_factor_is_one_outside_the_window(self):
        sched = schedule(
            slowdowns=(SlowdownEvent(node=2, start=1.0, duration=2.0, factor=4.0),)
        )
        assert sched.cpu_factor(2, 0.5) == 1.0
        assert sched.cpu_factor(2, 1.5) == 4.0
        assert sched.cpu_factor(2, 3.5) == 1.0
        assert sched.cpu_factor(0, 1.5) == 1.0  # other nodes untouched

    def test_wire_resolves_niu_substring_to_node(self):
        sched = schedule(
            degradations=(
                BandwidthEvent(link="niu3^", start=0.0, duration=1.0, factor=0.5),
            )
        )
        assert sched.wire(3, 0.5).bw_factor == 0.5
        assert sched.wire(4, 0.5) is CLEAN_WIRE

    def test_router_event_degrades_every_endpoint(self):
        sched = schedule(
            degradations=(
                BandwidthEvent(link="R1.0.0", start=0.0, duration=1.0, factor=0.5),
            )
        )
        for node in (0, 5, 11):
            assert sched.wire(node, 0.5).bw_factor == 0.5

    def test_overlaps_and_degraded_nodes(self):
        sched = schedule(
            jitters=(JitterEvent(node=1, start=2.0, duration=1.0, amp=1e-6),)
        )
        assert not sched.overlaps(0.0, 2.0)  # half-open: ends exactly at 2
        assert sched.overlaps(2.5, 2.6)
        assert not sched.overlaps(3.0, 4.0)

    def test_gsum_penalty_charges_per_butterfly_round(self):
        sched = schedule(
            degradations=(
                BandwidthEvent(
                    link="niu0^", start=0.0, duration=1.0, factor=1.0,
                    extra_latency=1e-6,
                ),
            )
        )
        p2 = sched.gsum_penalty(0.5, 2, 8, 150e6)
        p16 = sched.gsum_penalty(0.5, 16, 8, 150e6)
        assert p16 == pytest.approx(4 * p2)  # log2(16) rounds vs 1
        assert sched.gsum_penalty(0.5, 1, 8, 150e6) == 0.0

    def test_exchange_penalty_fragments_bulk_transfers(self):
        sched = schedule(
            degradations=(
                BandwidthEvent(
                    link="niu0^", start=0.0, duration=1.0, factor=1.0,
                    extra_latency=1e-6,
                ),
            )
        )
        nbytes = 10 * FRAG_BYTES
        p = sched.exchange_penalty(0, 0.5, [nbytes], 150e6)
        assert p == pytest.approx(10 * 1e-6)  # one hold per fragment
        assert sched.exchange_penalty(0, 0.5, [0, 0], 150e6) == 0.0


class TestFragmentSync:
    def test_frag_bytes_matches_the_des_vi_fragment(self):
        # Pricing must not import the DES, so the constant is duplicated
        # and pinned here instead.
        from repro.niu.startx import VI_FRAG_BYTES

        assert FRAG_BYTES == VI_FRAG_BYTES


class TestTierConsistency:
    """All three tiers compose the SAME penalty on their clean quotes."""

    PLAN = FaultPlan(
        degradations=(
            BandwidthEvent(
                link="niu1^", start=0.0, duration=10.0, factor=0.25,
                extra_latency=2e-6,
            ),
        ),
        jitters=(JitterEvent(node=1, start=0.0, duration=10.0, amp=4e-6),),
    )

    @pytest.mark.parametrize("tier", ["des", "analytic", "hybrid"])
    def test_degraded_minus_clean_is_the_shared_formula(self, tier):
        edge_bytes = [2048, 2048, 0, 0]
        be = resolve_backend(tier)
        clean = be.exchange_time(edge_bytes, node=1, now=5.0)
        be.set_degradation(DegradationSchedule(self.PLAN))
        degraded = be.exchange_time(edge_bytes, node=1, now=5.0)
        expected = DegradationSchedule(self.PLAN).exchange_penalty(
            1, 5.0, edge_bytes, be.model.bandwidth
        )
        assert degraded - clean == pytest.approx(expected, rel=1e-9)
        assert expected > 0.0

    @pytest.mark.parametrize("tier", ["des", "analytic", "hybrid"])
    def test_gsum_surcharge_matches_across_tiers(self, tier):
        be = resolve_backend(tier)
        clean = be.gsum_time(8, now=5.0)
        be.set_degradation(DegradationSchedule(self.PLAN))
        degraded = be.gsum_time(8, now=5.0)
        expected = DegradationSchedule(self.PLAN).gsum_penalty(
            5.0, 8, 8, be.model.bandwidth
        )
        assert degraded - clean == pytest.approx(expected, rel=1e-9)
        assert expected > 0.0

    def test_timeless_queries_price_the_healthy_fabric(self):
        be = resolve_backend("analytic")
        healthy = be.exchange_time([2048], node=1)
        be.set_degradation(DegradationSchedule(self.PLAN))
        assert be.exchange_time([2048], node=1) == healthy  # no `now`
