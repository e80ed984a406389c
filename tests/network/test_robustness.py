"""Fault injection and robustness tests for the fabric/NIU stack.

Section 2.2: "Arctic's link technology is designed such that the
software layer can assume error-free operations.  The correctness of
the network messages is verified at every router stage and at the
network endpoints using CRC.  The software layer only has to check a
1-bit status to detect the unlikely event of a corrupted message."
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import HyadesCluster
from repro.network import FatTree
from repro.network.packet import Packet
from repro.sim import Engine


def build(n=8):
    eng = Engine()
    ft = FatTree(eng, n)
    inbox = {ep: [] for ep in range(n)}
    for ep in range(n):
        ft.attach_endpoint(ep, lambda p, ep=ep: inbox[ep].append(p))
    return eng, ft, inbox


class TestCRCDetection:
    def test_corruption_at_injection_dropped_at_first_stage(self):
        eng, ft, inbox = build()
        bad = Packet(src=0, dst=7, payload_words=[1, 2])
        bad.corrupt = True
        ft.inject(bad)
        eng.run()
        assert inbox[7] == []
        assert ft.total_crc_errors() == 1

    def test_corruption_mid_flight_detected_downstream(self):
        """Corrupt the packet after it passes the first router: a later
        stage must drop it (verification happens at *every* stage)."""
        eng, ft, inbox = build(16)
        pkt = Packet(src=0, dst=15, payload_words=[1, 2])
        ft.inject(pkt)
        # flip a payload bit while the packet is in the fabric
        eng.schedule(0.4e-6, lambda: pkt.payload_words.__setitem__(0, 999))
        eng.run()
        assert inbox[15] == []
        assert ft.total_crc_errors() >= 1
        # the first router forwarded it (corruption happened later)
        leaf = ft.routers[0]  # R1.0.0, above endpoints 0 and 1
        assert leaf.packets_forwarded >= 1

    def test_endpoint_crc_status_bit(self):
        """Corruption on the final link is caught by the NIU endpoint
        check: the software-visible 1-bit status increments and the
        packet never reaches the PIO queue."""
        cluster = HyadesCluster()
        eng = cluster.engine

        def sender():
            pkt = yield from cluster.niu(0).pio_send(1, [5, 6])
            # corrupt after the last router stage but before delivery
            eng.schedule(0.29e-6, lambda: setattr(pkt, "corrupt", True))

        eng.process(sender())
        eng.run()
        assert cluster.niu(1).crc_status_errors == 1
        assert len(cluster.niu(1).pio_rx) == 0

    def test_good_traffic_flows_around_bad(self):
        eng, ft, inbox = build()
        for i in range(20):
            p = Packet(src=0, dst=5, payload_words=[i, 0])
            if i % 4 == 0:
                p.corrupt = True
            ft.inject(p)
        eng.run()
        got = sorted(p.payload_words[0] for p in inbox[5])
        assert got == [i for i in range(20) if i % 4 != 0]
        assert ft.total_crc_errors() == 5

    @given(bit=st.integers(min_value=0, max_value=30), word=st.integers(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_property_any_single_bit_flip_detected(self, bit, word):
        eng, ft, inbox = build()
        pkt = Packet(src=0, dst=3, payload_words=[0xAAAA, 0x5555])
        pkt.payload_words[word] ^= 1 << bit
        ft.inject(pkt)
        eng.run()
        assert inbox[3] == []


class TestDroppedPacketAccounting:
    def test_router_keeps_dropped_packets_for_diagnosis(self):
        eng, ft, _ = build()
        bad = Packet(src=2, dst=6, payload_words=[9, 9])
        bad.corrupt = True
        ft.inject(bad)
        eng.run()
        dropped = [p for r in ft.routers for p in r.dropped]
        assert dropped == [bad]

    def test_crc_errors_isolated_per_flow(self):
        """A corrupted VI transfer fragment is dropped; the transfer
        simply never completes (detectable), while an independent
        transfer on another pair finishes normally."""
        cluster = HyadesCluster()
        eng = cluster.engine
        done = {}

        def sender(src, dst, poison):
            xid = yield from cluster.niu(src).vi_send(dst, 2048, data=b"x" * 2048)

        def receiver(dst):
            xfer = yield from cluster.niu(dst).vi_serve_request()
            xfer = yield from cluster.niu(dst).vi_wait_complete(xfer.xid)
            done[dst] = xfer

        # poison one fragment of the 0->1 flow mid-run
        orig_inject = cluster.fabric.inject
        count = [0]

        def poisoned_inject(pkt):
            if pkt.src == 0 and pkt.tag == 0x7FF:
                count[0] += 1
                if count[0] == 5:
                    pkt.corrupt = True
            orig_inject(pkt)

        cluster.fabric.inject = poisoned_inject
        eng.process(sender(0, 1, True))
        eng.process(receiver(1))
        eng.process(sender(2, 3, False))
        eng.process(receiver(3))
        eng.run()
        assert 3 in done and done[3].complete  # clean flow finished
        assert 1 not in done  # poisoned flow detectably incomplete
        xfer01 = cluster.niu(1)._vi_rx[list(cluster.niu(1)._vi_rx)[0]]
        assert xfer01.received < xfer01.nbytes


class TestBackpressure:
    def test_pio_rx_overflow_raises_loudly(self):
        """The model refuses to silently drop deliverable traffic: an
        unserviced PIO queue overflowing is a program error."""
        cluster = HyadesCluster()
        eng = cluster.engine

        def blaster():
            for i in range(400):  # rx capacity is 256
                yield from cluster.niu(0).pio_send(1, [i, 0])

        eng.process(blaster())
        with pytest.raises(RuntimeError, match="overflow"):
            eng.run()

    def test_windowed_protocol_respects_finite_queues(self):
        """Sends (0.36 us each) outrun receives (1.86 us each), so bulk
        PIO traffic must bound its outstanding window below the rx
        capacity — as real message layers over StarT-X did.  400
        messages in windows of 128 flow without overflow, in order."""
        cluster = HyadesCluster()
        eng = cluster.engine
        got = []
        window = 128

        def blaster():
            for base in range(0, 400, window):
                for i in range(base, min(base + window, 400)):
                    yield from cluster.niu(0).pio_send(1, [i, 0])
                ack = yield from cluster.niu(0).pio_recv()  # window ack

        def drainer():
            for n in range(400):
                pkt = yield from cluster.niu(1).pio_recv()
                got.append(pkt.payload_words[0])
                if (n + 1) % window == 0 or n == 399:
                    yield from cluster.niu(1).pio_send(0, [n, 0], tag=1)

        eng.process(blaster())
        eng.process(drainer())
        eng.run()
        assert got == list(range(400))
