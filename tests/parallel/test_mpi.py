"""Tests for the general-purpose MPI-like layer (Section 6 context)."""

import pytest

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.hardware.cluster import HyadesCluster
from repro.parallel.mpi import MPI_EAGER_THRESHOLD, MPIComm


def run_ranks(n, body):
    """Spawn one process per rank running body(comm, rank); return results."""
    cluster = HyadesCluster()
    comm = MPIComm(cluster, n_ranks=n)
    results = {}

    def rank_proc(r):
        out = yield from body(comm, r)
        results[r] = out

    for r in range(n):
        cluster.engine.process(rank_proc(r))
    cluster.engine.run()
    return results, cluster.engine.now


class TestPointToPoint:
    def test_send_recv_payload(self):
        def body(comm, r):
            if r == 0:
                yield from comm.send(0, 1, 100, tag=7, data={"x": 42})
                return None
            msg = yield from comm.recv(1, source=0, tag=7)
            return msg

        res, _ = run_ranks(2, body)
        assert res[1].data == {"x": 42}
        assert res[1].nbytes == 100
        assert res[1].source == 0

    def test_tag_matching_out_of_order(self):
        """A receive for tag B must skip an earlier tag-A message."""

        def body(comm, r):
            if r == 0:
                yield from comm.send(0, 1, 8, tag=1, data="first")
                yield from comm.send(0, 1, 8, tag=2, data="second")
                return None
            m2 = yield from comm.recv(1, source=0, tag=2)
            m1 = yield from comm.recv(1, source=0, tag=1)
            return (m1.data, m2.data)

        res, _ = run_ranks(2, body)
        assert res[1] == ("first", "second")

    def test_wildcard_receive(self):
        def body(comm, r):
            if r in (0, 1):
                yield from comm.send(r, 2, 8, tag=5, data=r)
                return None
            if r != 2:
                return None
            got = []
            for _ in range(2):
                msg = yield from comm.recv(2, tag=5)
                got.append(msg.source)
            return sorted(got)

        res, _ = run_ranks(4, body)
        assert res[2] == [0, 1]

    def test_rendezvous_path_for_large_messages(self):
        nbytes = MPI_EAGER_THRESHOLD * 8

        def body(comm, r):
            if r == 0:
                yield from comm.send(0, 1, nbytes, tag=3, data=b"big")
                return None
            msg = yield from comm.recv(1, source=0, tag=3)
            return msg

        res, _ = run_ranks(2, body)
        assert res[1].nbytes == nbytes

    def test_bad_destination_rejected(self):
        def body(comm, r):
            try:
                yield from comm.send(0, 9, 8)
            except ValueError:
                return "caught"
            return "missed"

        res, _ = run_ranks(2, body)
        assert res[0] == "caught"

    def test_sendrecv_ring(self):
        def body(comm, r):
            n = comm.n_ranks
            msg = yield from comm.sendrecv(
                r, dest=(r + 1) % n, source=(r - 1) % n, nbytes=8, tag=4, data=r
            )
            return msg.data

        res, _ = run_ranks(4, body)
        assert res == {0: 3, 1: 0, 2: 1, 3: 2}


class TestCollectives:
    def test_allreduce_sum_correct(self):
        def body(comm, r):
            return (yield from comm.allreduce_sum(r, float(r + 1)))

        res, _ = run_ranks(8, body)
        assert all(v == pytest.approx(36.0) for v in res.values())

    def test_allreduce_bitwise_identical(self):
        def body(comm, r):
            return (yield from comm.allreduce_sum(r, 0.1 * (r + 1)))

        res, _ = run_ranks(8, body)
        assert len({v.hex() for v in res.values()}) == 1

    def test_allreduce_requires_power_of_two(self):
        def body(comm, r):
            try:
                yield from comm.allreduce_sum(r, 1.0)
            except ValueError:
                return "caught"

        res, _ = run_ranks(3, body)
        assert res[0] == "caught"

    def test_barrier_completes(self):
        def body(comm, r):
            yield from comm.barrier(r)
            return comm.engine.now

        res, t = run_ranks(8, body)
        assert len(res) == 8 and t > 0

    @pytest.mark.parametrize("root", [0, 3])
    def test_bcast_delivers_to_all(self, root):
        def body(comm, r):
            data = "payload" if r == root else None
            got = yield from comm.bcast(r, root=root, nbytes=64, data=data)
            return got

        res, _ = run_ranks(8, body)
        assert all(v == "payload" for v in res.values())


class TestGeneralityTax:
    """Section 6's argument, quantified: the tailored primitives beat
    the general-purpose layer on the same hardware."""

    def test_mpi_allreduce_slower_than_custom_gsum(self):
        def body(comm, r):
            t0 = comm.engine.now
            yield from comm.allreduce_sum(r, float(r))
            return comm.engine.now - t0

        res, _ = run_ranks(16, body)
        t_mpi = max(res.values())
        t_custom = des_time_schedule(HyadesCluster(), allreduce_butterfly(16, 8))
        assert t_mpi > 1.5 * t_custom

    def test_but_mpi_still_beats_ethernet_class_latency(self):
        """MPI over Arctic remains far faster than MPI over Ethernet —
        the interconnect, not only the API, sets the floor."""

        def body(comm, r):
            t0 = comm.engine.now
            yield from comm.allreduce_sum(r, 1.0)
            return comm.engine.now - t0

        res, _ = run_ranks(16, body)
        t_mpi_arctic = max(res.values())
        assert t_mpi_arctic < 942e-6 / 3  # far under the FE gsum
