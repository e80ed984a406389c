"""Tests for StarT-X PIO mode against the paper's Fig. 2 LogP table."""

import pytest

from repro.core.logp import measure_logp
from repro.hardware import HyadesCluster
from repro.niu import pci
from repro.niu.startx import PIO_COST_MODEL

US = 1e-6


class TestPIOCostModel:
    """Analytic Os/Or from the PCI constants (Sections 2.1/2.3)."""

    def test_8_byte_send_overhead(self):
        # "two 8-byte (header plus payload) mmap accesses" -> 0.36 us.
        assert PIO_COST_MODEL.os_time(8) == pytest.approx(0.36 * US)

    def test_8_byte_recv_overhead(self):
        assert PIO_COST_MODEL.or_time(8) == pytest.approx(1.86 * US)

    def test_64_byte_send_overhead_matches_fig2(self):
        # Fig 2 measures Os = 1.7 us for 64-byte payloads.
        assert PIO_COST_MODEL.os_time(64) == pytest.approx(1.7 * US, rel=0.06)

    def test_64_byte_recv_overhead_matches_fig2(self):
        # Fig 2 measures Or = 8.6 us.
        assert PIO_COST_MODEL.or_time(64) == pytest.approx(8.6 * US, rel=0.04)

    def test_accesses_counts_header(self):
        assert PIO_COST_MODEL.accesses(8) == 2
        assert PIO_COST_MODEL.accesses(64) == 9

    def test_closed_form_and_des_read_one_mmap_read_constant(self, monkeypatch):
        """The mmap read is stated once: another machine moves the
        closed-form Or and the DES-measured receive overhead alike."""
        base_or = PIO_COST_MODEL.or_time(8)
        base = measure_logp(8)
        monkeypatch.setattr(pci, "MMAP_READ_LATENCY", 1.5 * pci.MMAP_READ_LATENCY)
        assert PIO_COST_MODEL.or_time(8) == pytest.approx(1.5 * base_or, rel=1e-12)
        patched = measure_logp(8)
        # the wire latency and Os do not read the constant, so the DES
        # half round trip grows by exactly the extra receive overhead
        des_or = base_or + (patched.half_rtt - base.half_rtt)
        assert des_or == pytest.approx(1.5 * base_or, rel=1e-9)
        assert patched.os_ == base.os_


def ping_pong(src, dst, payload_words):
    """Run one DES ping-pong; return one-way time (RTT/2) in seconds."""
    cluster = HyadesCluster()
    eng = cluster.engine
    out = {}

    def pinger():
        t0 = eng.now
        yield from cluster.niu(src).pio_send(dst, payload_words)
        yield from cluster.niu(src).pio_recv()
        out["rtt"] = eng.now - t0

    def ponger():
        yield from cluster.niu(dst).pio_recv()
        yield from cluster.niu(dst).pio_send(src, payload_words)

    eng.process(pinger())
    eng.process(ponger())
    eng.run()
    return out["rtt"] / 2


class TestPIOPingPongDES:
    def test_8_byte_half_rtt_matches_fig2(self):
        # Fig 2: Tround-trip/2 = 3.7 us for 8-byte payloads.
        t = ping_pong(0, 15, [1, 2])
        assert t == pytest.approx(3.7 * US, rel=0.10)

    def test_64_byte_half_rtt_matches_fig2(self):
        # Fig 2: Tround-trip/2 = 11.7 us for 64-byte payloads.
        t = ping_pong(0, 15, list(range(16)))
        assert t == pytest.approx(11.7 * US, rel=0.10)

    def test_near_pair_faster_than_far_pair(self):
        assert ping_pong(0, 1, [1, 2]) < ping_pong(0, 15, [1, 2])

    def test_network_latency_consistent_with_fig2(self):
        # L = RTT/2 - Os - Or ~= 1.3 us for 8-byte payloads.
        t = ping_pong(0, 15, [1, 2])
        L = t - PIO_COST_MODEL.os_time(8) - PIO_COST_MODEL.or_time(8)
        assert L == pytest.approx(1.3 * US, rel=0.25)


class TestPIOSemantics:
    def test_payload_data_delivered_intact(self):
        cluster = HyadesCluster()
        eng = cluster.engine
        got = []

        def sender():
            yield from cluster.niu(2).pio_send(7, [10, 20, 30], tag=5, data={"k": 1})

        def receiver():
            pkt = yield from cluster.niu(7).pio_recv()
            got.append(pkt)

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        (pkt,) = got
        assert pkt.payload_words == [10, 20, 30]
        assert pkt.tag == 5
        assert pkt.data == {"k": 1}
        assert pkt.src == 2

    def test_many_messages_fifo_between_pair(self):
        cluster = HyadesCluster()
        eng = cluster.engine
        got = []

        def sender():
            for i in range(20):
                yield from cluster.niu(0).pio_send(9, [i, 0])

        def receiver():
            for _ in range(20):
                pkt = yield from cluster.niu(9).pio_recv()
                got.append(pkt.payload_words[0])

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        assert got == list(range(20))

    def test_try_recv_returns_none_when_empty(self):
        cluster = HyadesCluster()
        eng = cluster.engine
        got = []

        def poller():
            pkt = yield from cluster.niu(3).pio_try_recv()
            got.append(pkt)

        eng.process(poller())
        eng.run()
        assert got == [None]
        # One status read was charged.
        assert eng.now == pytest.approx(0.93 * US)
