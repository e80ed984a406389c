"""The seeded fault-injection harness: deterministic plans, faults
observable through the existing CRC machinery and per-link counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BandwidthEvent,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    LinkFaultModel,
    SlowdownEvent,
    StallEvent,
)
from repro.network import FatTree
from repro.network.packet import MAX_PAYLOAD_WORDS, Packet
from repro.sim import Engine


def build(n=8, plan=None):
    eng = Engine()
    ft = FatTree(eng, n)
    inbox = {ep: [] for ep in range(n)}
    for ep in range(n):
        ft.attach_endpoint(ep, lambda p, ep=ep: inbox[ep].append(p))
    inj = FaultInjector(ft, plan) if plan is not None else None
    return eng, ft, inbox, inj


def blast(ft, n_pkts=200, src=0, dst=5):
    for i in range(n_pkts):
        ft.inject(Packet(src=src, dst=dst, payload_words=[i, i ^ 0xFFFF]))


class TestPlanValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LinkFaultModel(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.7, corrupt_prob=0.7)  # sum > 1

    def test_cpu_slowdown_is_rejected_with_its_pricing_path(self):
        plan = FaultPlan(
            slowdowns=(SlowdownEvent(node=1, start=0.0, duration=1.0, factor=2.0),)
        )
        with pytest.raises(ValueError, match="DegradationSchedule.cpu_factor"):
            build(plan=plan)

    def test_override_wins_by_substring(self):
        plan = FaultPlan(
            drop_prob=0.1,
            link_overrides={"niu3": LinkFaultModel(drop_prob=0.9)},
        )
        assert plan.model_for("niu3^").drop_prob == 0.9
        assert plan.model_for("R1.0.0_e0").drop_prob == 0.1

    def test_inactive_plan_installs_no_hooks(self):
        _, ft, _, inj = build(plan=FaultPlan(seed=1))
        assert inj.hooked_links == []
        assert all(lk.fault_hook is None for lk in ft.iter_links())


class TestDeterminism:
    def test_same_seed_same_faults(self):
        counts = []
        for _ in range(2):
            eng, ft, inbox, inj = build(plan=FaultPlan(seed=11, drop_prob=0.05))
            blast(ft)
            eng.run()
            counts.append(
                (inj.injected_drops, sorted(p.payload_words[0] for p in inbox[5]))
            )
        assert counts[0] == counts[1]
        assert counts[0][0] > 0

    def test_different_seed_different_faults(self):
        outcomes = set()
        for seed in range(4):
            eng, ft, inbox, inj = build(plan=FaultPlan(seed=seed, drop_prob=0.05))
            blast(ft)
            eng.run()
            outcomes.add(tuple(p.payload_words[0] for p in inbox[5]))
        assert len(outcomes) > 1

    def test_per_link_streams_independent(self):
        """The same plan must fault different links differently (the RNG
        is seeded per link, not shared)."""
        eng, ft, _, inj = build(plan=FaultPlan(seed=2, drop_prob=0.2))
        blast(ft, dst=5)
        blast(ft, src=7, dst=2)
        eng.run()
        per_link = dict(
            (name, dropped) for name, dropped, _ in inj.per_link_counters()
        )
        assert len(per_link) >= 2


class TestInjectedCorruption:
    def test_corruption_counted_and_never_delivered(self):
        """An injected corruption is counted in the link's stats, caught
        by the *next* router stage's CRC check, and the packet never
        reaches the endpoint — the paper's detection story, exercised
        end to end."""
        plan = FaultPlan(seed=3, corrupt_prob=0.1)
        eng, ft, inbox, inj = build(plan=plan)
        blast(ft, n_pkts=300)
        eng.run()
        assert inj.injected_corruptions > 0
        assert (
            sum(lk.stats.corrupted for lk in ft.iter_links())
            == inj.injected_corruptions
        )
        # corruption on an inner link is dropped by the next router's CRC
        # check; corruption on the final down-link reaches the endpoint,
        # where the NIU's status bit catches it (every arrival here fails
        # check_crc) — together they account for every injection
        endpoint_bad = [p for p in inbox[5] if not p.check_crc()]
        assert ft.total_crc_errors() + len(endpoint_bad) == inj.injected_corruptions
        good = [p for p in inbox[5] if p.check_crc()]
        assert len(good) == 300 - inj.injected_corruptions
        assert not any(p.corrupt for p in good)

    def test_first_stage_drops_injection_link_corruption(self):
        """Corruption on the NIU injection link is caught by the first
        (leaf) router stage: it forwards nothing corrupted."""
        plan = FaultPlan(
            seed=5, link_overrides={"niu0^": LinkFaultModel(corrupt_prob=1.0)}
        )
        eng, ft, inbox, inj = build(plan=plan)
        blast(ft, n_pkts=10)
        eng.run()
        assert inbox[5] == []
        assert inj.injected_corruptions == 10
        # every drop happened at the first router stage
        leaf = ft.routers[0]  # R1.0.0, above endpoints 0 and 1
        assert leaf.crc_errors == 10

    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=2,
            max_size=MAX_PAYLOAD_WORDS,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_crc_round_trip_random_payloads(self, words):
        """Uncorrupted packets with arbitrary word payloads must survive
        the full fabric transit with their CRC intact."""
        eng, ft, inbox, _ = build()
        ft.inject(Packet(src=0, dst=7, payload_words=list(words)))
        eng.run()
        assert len(inbox[7]) == 1
        pkt = inbox[7][0]
        assert pkt.payload_words == list(words)
        assert pkt.check_crc()


class TestInjectedDrops:
    def test_drops_counted_per_link(self):
        plan = FaultPlan(seed=4, drop_prob=0.1)
        eng, ft, inbox, inj = build(plan=plan)
        blast(ft, n_pkts=300)
        eng.run()
        assert inj.injected_drops > 0
        assert len(inbox[5]) == 300 - inj.injected_drops
        counters = inj.counters()
        assert counters["link_drops"] == inj.injected_drops
        assert counters["injected_drops"] == inj.injected_drops

    def test_certain_drop_blackholes_flow(self):
        plan = FaultPlan(
            seed=0, link_overrides={"niu0^": LinkFaultModel(drop_prob=1.0)}
        )
        eng, ft, inbox, inj = build(plan=plan)
        blast(ft, n_pkts=20)
        blast(ft, n_pkts=20, src=1, dst=6)  # unaffected flow
        eng.run()
        assert inbox[5] == []
        assert len(inbox[6]) == 20


class TestDegradationStallCrash:
    def _burst_time(self, plan=None, start=0.0, n=20):
        """Completion time of an ``n``-packet burst: with cut-through
        forwarding, a degraded link shows up as serialization back-
        pressure on queued traffic, not as per-packet latency."""
        eng, ft, inbox, _ = build(plan=plan)

        def burst():
            for i in range(n):
                ft.inject(Packet(src=0, dst=5, payload_words=[i, 0]))

        eng.schedule(start, burst)
        eng.run()
        assert len(inbox[5]) == n
        return max(p.recv_time for p in inbox[5]) - start

    def test_bandwidth_degradation_backpressures_burst(self):
        base = self._burst_time()
        slow = self._burst_time(
            FaultPlan(seed=0, degradations=(BandwidthEvent("niu0^", 0.0, 1.0, 0.25),))
        )
        assert slow > 2 * base

    def test_degradation_window_ends(self):
        plan = FaultPlan(seed=0, degradations=(BandwidthEvent("niu0^", 0.0, 1e-6, 0.25),))
        after = self._burst_time(plan=plan, start=2e-6)
        assert after == pytest.approx(self._burst_time(), rel=1e-9)

    def test_stall_delays_but_delivers(self):
        plan = FaultPlan(seed=0, stalls=(StallEvent(node=0, start=0.0, duration=5e-6),))
        eng, ft, inbox, _ = build(plan=plan)
        ft.inject(Packet(src=0, dst=5, payload_words=[1, 2]))
        eng.run()
        assert len(inbox[5]) == 1
        assert inbox[5][0].recv_time >= 5e-6

    def test_crash_blackholes_traffic_to_and_from_node(self):
        plan = FaultPlan(seed=0, crashes=(CrashEvent(node=0, start=0.0),))
        eng, ft, inbox, inj = build(plan=plan)
        eng.schedule(1e-6, lambda: ft.inject(Packet(src=0, dst=5, payload_words=[1, 2])))
        eng.schedule(1e-6, lambda: ft.inject(Packet(src=5, dst=0, payload_words=[3, 4])))
        eng.run()
        assert inbox[5] == []  # crashed node sends nothing
        assert inbox[0] == []  # traffic to it is blackholed
        assert inj.counters()["blackholed"] == 1
