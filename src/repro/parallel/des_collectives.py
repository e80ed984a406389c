"""VI point-to-point microbenchmarks on the discrete-event cluster.

What is left here are the two stand-alone VI-mode measurements of
Section 4.1, executed packet-by-packet on the simulated Arctic/StarT-X
hardware: :func:`des_transfer_bandwidth` (the one-direction stream
behind Fig. 7) and :func:`des_exchange` (the two-way pair swap that is
the DES tier's halo leg, :meth:`repro.backend.DESBackend.pair_time`).
Global sums and barriers run as schedules through
:func:`repro.collectives.des_exec.des_time_schedule` /
:func:`~repro.collectives.des_exec.des_run_schedule`.
"""

from __future__ import annotations

from repro.hardware.cluster import HyadesCluster


def des_exchange(cluster: HyadesCluster, a: int, b: int, nbytes: int) -> float:
    """One exchange between nodes ``a`` and ``b`` on the DES cluster.

    Two sequential VI-mode transfers in opposite directions
    (Section 4.1: a single transfer alone saturates the PCI bus).
    Returns the elapsed seconds until both directions complete.
    """
    eng = cluster.engine
    done = {}

    def node_a():
        yield from cluster.niu(a).vi_send(b, nbytes)
        xfer = yield from cluster.niu(a).vi_serve_request()
        yield from cluster.niu(a).vi_wait_complete(xfer.xid)
        done["a"] = eng.now

    def node_b():
        xfer = yield from cluster.niu(b).vi_serve_request()
        yield from cluster.niu(b).vi_wait_complete(xfer.xid)
        yield from cluster.niu(b).vi_send(a, nbytes)
        done["b"] = eng.now

    start = eng.now
    eng.process(node_a(), name=f"exchange-node{a}")
    eng.process(node_b(), name=f"exchange-node{b}")
    # watchdog: a lost fragment must surface as a DeadlockError naming
    # the blocked side, not as the other side's completion time; past
    # it both processes have finished, so both sides are in ``done``
    eng.run(watchdog=True)
    return max(done.values()) - start


def des_transfer_bandwidth(nbytes: int) -> float:
    """Measured one-direction VI bandwidth on a fresh cluster (Fig. 7)."""
    cluster = HyadesCluster()
    eng = cluster.engine
    done = {}

    def sender():
        yield from cluster.niu(0).vi_send(1, nbytes)

    def receiver():
        xfer = yield from cluster.niu(1).vi_serve_request()
        yield from cluster.niu(1).vi_wait_complete(xfer.xid)
        done["t"] = eng.now

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    return nbytes / done["t"]
