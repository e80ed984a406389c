"""Ablation — tailored primitives vs a general-purpose MPI layer.

Section 6: "in an application-specific cluster, there is little reason
to give up any performance for an API that is more general than
required."  This benchmark quantifies the generality tax on the same
simulated hardware: the custom butterfly global sum and VI exchange
against MPI-style allreduce/sendrecv (tag matching, bounce-buffer
copies, rendezvous) — and shows the tax, while real, is still small
next to the gap between interconnects.
"""

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import arctic_cost_model, fast_ethernet_cost_model
from repro.parallel.mpi import MPIComm

from _tables import emit, format_table, us


def mpi_allreduce_time(n=16):
    cluster = HyadesCluster()
    comm = MPIComm(cluster, n_ranks=n)
    done = {}

    def rank_proc(r):
        t0 = cluster.engine.now
        yield from comm.allreduce_sum(r, float(r))
        done[r] = cluster.engine.now - t0

    for r in range(n):
        cluster.engine.process(rank_proc(r))
    cluster.engine.run()
    return max(done.values())


def mpi_exchange_time(nbytes, a=0, b=1):
    """MPI-style neighbour exchange: sendrecv both directions."""
    cluster = HyadesCluster()
    comm = MPIComm(cluster, n_ranks=4)
    done = {}

    def node(r, peer):
        t0 = cluster.engine.now
        yield from comm.sendrecv(r, dest=peer, source=peer, nbytes=nbytes, tag=1)
        done[r] = cluster.engine.now - t0

    cluster.engine.process(node(a, b))
    cluster.engine.process(node(b, a))
    cluster.engine.run()
    return max(done.values())


def custom_gsum_time(n=16):
    return des_time_schedule(HyadesCluster(), allreduce_butterfly(n, 8))


def test_bench_generality_tax_table():
    t_mpi_gsum = mpi_allreduce_time()
    t_custom_gsum = custom_gsum_time()
    arctic = arctic_cost_model()
    fe = fast_ethernet_cost_model()
    t_mpi_exch_1k = mpi_exchange_time(1024)
    t_custom_exch_1k = 2 * arctic.transfer_time(1024)
    rows = [
        [
            "16-way global sum (us)",
            us(t_custom_gsum),
            us(t_mpi_gsum),
            f"{t_mpi_gsum / t_custom_gsum:.1f}x",
            us(fe.gsum_time(16), 0),
        ],
        [
            "1 KB neighbour exchange (us)",
            us(t_custom_exch_1k),
            us(t_mpi_exch_1k),
            f"{t_mpi_exch_1k / t_custom_exch_1k:.1f}x",
            "-",
        ],
    ]
    emit(
        "ablation_mpi_generic",
        format_table(
            "Ablation - custom primitives vs general-purpose MPI layer on Arctic",
            ["operation", "custom", "MPI layer", "tax", "MPI on FE (ref)"],
            rows,
        ),
    )
    # the generality tax is real...
    assert t_mpi_gsum > 1.5 * t_custom_gsum
    # ...but still an order of magnitude under commodity-interconnect MPI
    assert t_mpi_gsum < fe.gsum_time(16) / 5
    # a month of custom-primitive work buys back the factor (Section 6
    # footnote: "less than one-man month to develop the two primitives")
    assert t_mpi_exch_1k > t_custom_exch_1k


def test_bench_mpi_exchange_scales_with_size():
    t1k = mpi_exchange_time(1024)
    t16k = mpi_exchange_time(16384)
    assert t16k > t1k
    # bulk MPI pays the bounce copies: effective bandwidth well under VI
    arctic = arctic_cost_model()
    assert 16384 / (t16k / 2) < 0.7 * arctic.perceived_bandwidth(16384)
