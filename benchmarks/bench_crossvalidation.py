"""Cross-validation — BSP cost accounting vs packet-level simulation.

The GCM charges its communication from the analytic cost models; the
microbenchmarks validate those models point-by-point.  This benchmark
closes the loop end-to-end: it replays the *exact communication
pattern* of one model time step (five 3-D halo exchanges, then Ni
iterations of [one 2-field 2-D exchange + two global sums]) message by
message on the discrete-event cluster, and compares the elapsed DES
time against the lockstep runtime's charge for the same step.

The DES enacts wire traffic but not the strided pack/unpack memcpy
(that is host memory work), so the apples-to-apples comparison is
against the cost model with the copy term removed; the full charge is
also shown.
"""

import dataclasses

import pytest

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import arctic_cost_model
from repro.parallel.des_collectives import des_exchange
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table

MS = 1e-3


def des_replay_step(nz=8, ni=20, n_nodes=4):
    """Replay one step's comm pattern on the DES; return elapsed.

    One representative node's sequence is the critical path (congruent
    tiles): per neighbour, the exchange primitive's two sequential
    opposite transfers — exactly what ``des_exchange`` runs.
    """
    d = Decomposition(64, 32, 2, 2, olx=3)
    elapsed = 0.0
    edges3 = d.edge_bytes(nz=nz, rank=3)
    for _field in range(5):
        for nbytes in edges3:
            if nbytes:
                elapsed += des_exchange(HyadesCluster(), 0, 1, nbytes)
    edges2 = d.edge_bytes(nz=1, width=1, rank=3)
    for _it in range(ni):
        for _field in range(2):
            for nbytes in edges2:
                if nbytes:
                    elapsed += des_exchange(HyadesCluster(), 0, 1, nbytes)
        for _g in range(2):
            elapsed += des_time_schedule(
                HyadesCluster(), allreduce_butterfly(n_nodes, 8)
            )
    return elapsed


def bsp_charge(nz=8, ni=20, n_nodes=4, include_pack=True):
    """The lockstep runtime's charge for the same pattern (1 CPU/node)."""
    cm = arctic_cost_model()
    if not include_pack:
        cm = dataclasses.replace(cm, copy_bandwidth=None)
    d = Decomposition(64, 32, 2, 2, olx=3)
    edges3 = d.edge_bytes(nz=nz, rank=3)
    edges2 = d.edge_bytes(nz=1, width=1, rank=3)
    t = 5 * cm.exchange_time(edges3, mixmode=False)
    t += ni * (2 * cm.exchange_time(edges2, mixmode=False) + 2 * cm.gsum_time(n_nodes))
    return t


def test_bench_crossvalidation():
    t_des = des_replay_step()
    t_wire = bsp_charge(include_pack=False)
    t_full = bsp_charge(include_pack=True)
    emit(
        "crossvalidation",
        format_table(
            "Cross-validation - one step's comm: packet-level DES vs BSP charge",
            ["path", "time (ms)", "method"],
            [
                ["DES replay", f"{t_des / MS:.3f}", "every packet through routers/NIUs"],
                ["BSP charge, wire only", f"{t_wire / MS:.3f}", "cost model minus pack/unpack"],
                ["BSP charge, full", f"{t_full / MS:.3f}", "cost model incl. host memcpy"],
                ["wire agreement", f"{t_des / t_wire:.3f}x", "-"],
            ],
        ),
    )
    assert t_des == pytest.approx(t_wire, rel=0.10)
    assert t_full > t_wire  # the pack term is a real, separate cost


def test_bench_crossvalidation_scales_with_ni():
    def ratio(ni):
        return des_replay_step(ni=ni) / bsp_charge(ni=ni, include_pack=False)

    r = ratio(10)
    r40 = ratio(40)
    assert abs(r - 1.0) < 0.12
    assert abs(r40 - 1.0) < 0.12
