"""Tests of the two-priority design working as Section 2.2 intends:
control traffic (VI negotiation) rides HIGH and cannot be starved by
bulk LOW data — the property that keeps new transfers startable while
others stream."""

from repro.hardware.cluster import HyadesCluster


def test_negotiation_overtakes_bulk_data():
    """While a large VI transfer streams 0->1, a new transfer 0->2 is
    negotiated; its HIGH request must not wait for the bulk LOW stream
    to drain the shared uplink."""
    cluster = HyadesCluster()
    eng = cluster.engine
    marks = {}

    def bulk_sender():
        yield from cluster.niu(0).vi_send(1, 256 * 1024)  # ~2.4 ms stream

    def bulk_receiver():
        xfer = yield from cluster.niu(1).vi_serve_request()
        yield from cluster.niu(1).vi_wait_complete(xfer.xid)
        marks["bulk_done"] = eng.now

    def late_sender():
        yield eng.timeout(100e-6)  # bulk already streaming
        t0 = eng.now
        yield from cluster.niu(0).vi_send(2, 1024)
        marks["late_sent"] = eng.now - t0

    def late_receiver():
        xfer = yield from cluster.niu(2).vi_serve_request()
        yield from cluster.niu(2).vi_wait_complete(xfer.xid)
        marks["late_done"] = eng.now

    eng.process(bulk_sender())
    eng.process(bulk_receiver())
    eng.process(late_sender())
    eng.process(late_receiver())
    eng.run()
    # the late 1 KB transfer finishes long before the 256 KB stream
    assert marks["late_done"] < marks["bulk_done"]
    # and its total time stays near the unloaded 1 KB cost (~18 us),
    # not the milliseconds of bulk still queued: negotiation rode HIGH
    assert marks["late_sent"] < 150e-6


def test_vi_requests_served_in_arrival_order():
    cluster = HyadesCluster()
    eng = cluster.engine
    order = []

    def sender(src, delay):
        yield eng.timeout(delay)
        yield from cluster.niu(src).vi_send(3, 512)

    def receiver():
        for _ in range(3):
            xfer = yield from cluster.niu(3).vi_serve_request()
            xfer = yield from cluster.niu(3).vi_wait_complete(xfer.xid)
            order.append(xfer.src)

    for i, src in enumerate((0, 1, 2)):
        eng.process(sender(src, i * 50e-6))
    eng.process(receiver())
    eng.run()
    assert order == [0, 1, 2]


def test_gsum_quality_unharmed_by_background_bulk():
    """An 8-way global sum completes in near-unloaded time while bulk
    VI data streams between two uninvolved nodes, thanks to priority
    separation and fat-tree path diversity."""
    from repro.collectives.des_exec import des_time_schedule
    from repro.collectives.schedules import allreduce_butterfly

    cluster = HyadesCluster()
    eng = cluster.engine

    def bulk():
        yield from cluster.niu(8).vi_send(9, 128 * 1024)

    def bulk_rx():
        xfer = yield from cluster.niu(9).vi_serve_request()
        yield from cluster.niu(9).vi_wait_complete(xfer.xid)

    eng.process(bulk())
    eng.process(bulk_rx())
    # run the gsum among nodes 0..7 concurrently with the bulk stream
    t = des_time_schedule(cluster, allreduce_butterfly(8, 8))
    assert t < 1.3 * 12.8e-6  # within 30% of the unloaded 8-way time
