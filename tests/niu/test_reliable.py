"""The go-back-N reliable-delivery layer over the StarT-X NIU."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFaultModel
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.niu import reliable
from repro.niu.reliable import DeliveryError, ReliableNIU, get_reliable


def build(n_nodes=4, plan=None):
    cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes))
    inj = FaultInjector(cluster.fabric, plan) if plan is not None else None
    rnius = [get_reliable(cluster.niu(i)) for i in range(n_nodes)]
    return cluster, rnius, inj


def transfer(cluster, rnius, payloads, src=0, dst=1, channel=0):
    """Ship ``payloads`` src -> dst through the reliable layer; returns
    the received (tag, bytes) list in arrival order."""
    eng = cluster.engine
    got = []

    def sender():
        for tag, data in payloads:
            yield from rnius[src].send(dst, tag=tag, data=data, channel=channel)

    def receiver():
        for _ in payloads:
            msg = yield from rnius[dst].recv(channel=channel)
            got.append((msg.tag, msg.data))

    eng.process(sender(), name="sender")
    eng.process(receiver(), name="receiver")
    eng.run(watchdog=True)
    return got


class TestCleanDelivery:
    def test_small_message_round_trip(self):
        cluster, rnius, _ = build()
        got = transfer(cluster, rnius, [(7, b"hello reliable world")])
        assert got == [(7, b"hello reliable world")]

    def test_large_message_fragments_and_reassembles(self):
        rng = np.random.default_rng(0)
        blob = rng.integers(0, 256, size=10_000, dtype=np.uint8).tobytes()
        cluster, rnius, _ = build()
        got = transfer(cluster, rnius, [(1, blob)])
        assert got == [(1, blob)]

    def test_fifo_order_preserved(self):
        cluster, rnius, _ = build()
        payloads = [(i, bytes([i]) * (10 + i)) for i in range(20)]
        got = transfer(cluster, rnius, payloads)
        assert got == payloads

    def test_zero_byte_message(self):
        cluster, rnius, _ = build()
        assert transfer(cluster, rnius, [(3, b"")]) == [(3, b"")]

    def test_no_retransmissions_on_clean_fabric(self):
        cluster, rnius, _ = build()
        transfer(cluster, rnius, [(0, b"x" * 1000)])
        st = rnius[0].stats()
        assert st["retransmissions"] == 0
        assert st["nacks_sent"] == 0

    def test_delivery_costs_simulated_time(self):
        cluster, rnius, _ = build()
        transfer(cluster, rnius, [(0, b"x" * 1000)])
        assert cluster.engine.now > 0.0


class TestChannels:
    def test_channels_do_not_steal_messages(self):
        cluster, rnius, _ = build()
        eng = cluster.engine
        got = {1: [], 2: []}

        def sender():
            yield from rnius[0].send(1, tag=0, data=b"for-ch1", channel=1)
            yield from rnius[0].send(1, tag=0, data=b"for-ch2", channel=2)

        def receiver(ch):
            msg = yield from rnius[1].recv(channel=ch)
            got[ch].append(msg.data)

        eng.process(sender(), name="s")
        # start the receivers in reverse channel order on purpose
        eng.process(receiver(2), name="r2")
        eng.process(receiver(1), name="r1")
        eng.run(watchdog=True)
        assert got == {1: [b"for-ch1"], 2: [b"for-ch2"]}

    def test_bidirectional_flows_independent(self):
        cluster, rnius, _ = build()
        eng = cluster.engine
        got = {}

        def node(me, peer):
            yield from rnius[me].send(peer, tag=me, data=bytes([me]) * 100)
            msg = yield from rnius[me].recv()
            got[me] = msg.data

        eng.process(node(0, 1), name="n0")
        eng.process(node(1, 0), name="n1")
        eng.run(watchdog=True)
        assert got == {0: b"\x01" * 100, 1: b"\x00" * 100}


class TestLossRecovery:
    @pytest.mark.parametrize("drop", [0.001, 0.01, 0.1])
    def test_seeded_drops_recovered_in_order(self, drop):
        plan = FaultPlan(seed=13, drop_prob=drop)
        cluster, rnius, inj = build(plan=plan)
        payloads = [(i % 16, bytes([i % 256]) * 200) for i in range(30)]
        got = transfer(cluster, rnius, payloads)
        assert got == payloads

    def test_corruption_recovered(self):
        plan = FaultPlan(seed=3, corrupt_prob=0.05)
        cluster, rnius, inj = build(plan=plan)
        rng = np.random.default_rng(3)
        blob = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
        got = transfer(cluster, rnius, [(0, blob)])
        assert got == [(0, blob)]
        assert inj.injected_corruptions > 0

    def test_drops_cost_extra_simulated_time(self):
        payloads = [(0, b"y" * 2000)]
        clean_cluster, clean_rnius, _ = build()
        transfer(clean_cluster, clean_rnius, payloads)
        faulty_cluster, faulty_rnius, _ = build(plan=FaultPlan(seed=1, drop_prob=0.05))
        transfer(faulty_cluster, faulty_rnius, payloads)
        assert faulty_cluster.engine.now > clean_cluster.engine.now
        assert faulty_rnius[0].stats()["retransmissions"] > 0

    def test_retry_exhaustion_raises_structured_error(self, monkeypatch):
        """A destination whose path drops everything must fail loudly
        with the flow coordinates, not hang."""
        monkeypatch.setattr(reliable, "BASE_RTO", 20e-6)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 4)
        plan = FaultPlan(
            seed=0, link_overrides={"niu0^": LinkFaultModel(drop_prob=1.0)}
        )
        cluster, rnius, _ = build(plan=plan)
        eng = cluster.engine

        def sender():
            yield from rnius[0].send(1, tag=0, data=b"doomed")

        eng.process(sender(), name="sender")
        with pytest.raises(DeliveryError) as ei:
            eng.run(watchdog=True)
        err = ei.value
        assert err.src == 0 and err.dst == 1
        assert err.attempts == 4
        assert "0->1" in str(err) and "gave up" in str(err)


class TestLayerManagement:
    def test_get_reliable_caches_per_niu(self):
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        a = get_reliable(cluster.niu(0))
        assert get_reliable(cluster.niu(0)) is a
        assert get_reliable(cluster.niu(1)) is not a

    def test_get_reliable_rejects_conflicting_params(self):
        """Every layer runs one protocol tuning: there is none to ask for."""
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        with pytest.raises(TypeError):
            get_reliable(cluster.niu(0), window=4)

    def test_rx_hook_exclusive(self):
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        ReliableNIU(cluster.niu(0))
        with pytest.raises(RuntimeError):
            ReliableNIU(cluster.niu(0))

    def test_stats_accounting_consistent(self):
        plan = FaultPlan(seed=5, drop_prob=0.02)
        cluster, rnius, _ = build(plan=plan)
        payloads = [(0, b"z" * 500)] * 4
        transfer(cluster, rnius, payloads)
        tx, rx = rnius[0].stats(), rnius[1].stats()
        assert rx["messages_delivered"] == 4
        assert tx["data_sent"] >= rx["data_received"]
        assert tx["acks_received"] <= rx["acks_sent"]
