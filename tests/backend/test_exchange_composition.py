"""The Section 4.1 exchange composition is written once
(``CommCostModel.compose_exchange``) and both tiers that use it still
return, bit for bit, what their own copies returned.

The two functions below are those copies, verbatim from the commit
before the control flow was shared; the analytic slave leg
``2 (o + s / (bw f))`` and the DES one ``pair(s) + 2 (s / bw)(1/f - 1)``
are equal on paper and not bitwise, which is why only the flow is shared.
"""

import dataclasses

import pytest

from repro.backend import DESBackend
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)


def reference_analytic(self, edge_bytes, mixmode=False, n_ranks=1):
    edges = [s for s in edge_bytes if s > 0]
    total = sum(edges)
    overhead = self.transfer_overhead + self.hop_latency
    if self.shared_medium:
        t = 0.0
        for s in edges:
            t += 2 * (overhead + s * n_ranks / self.bandwidth)
        return t
    t = 0.0
    for s in edges:
        t += 2 * (overhead + s / self.bandwidth)
    if mixmode:
        if self.slave_bw_factor is None:
            t *= 2.0
        else:
            slave_bw = self.bandwidth * self.slave_bw_factor
            for s in edges:
                t += 2 * (overhead + s / slave_bw)
    if self.copy_bandwidth is not None:
        t += 2 * total / self.copy_bandwidth
    return t


def reference_des(self, edge_bytes, mixmode=False):
    edges = [int(s) for s in edge_bytes if s > 0]
    t = 0.0
    for s in edges:
        t += self.pair_time(s)
    if mixmode:
        if self.model.slave_bw_factor is None:
            t *= 2.0
        else:
            stretch = 1.0 / self.model.slave_bw_factor - 1.0
            for s in edges:
                t += self.pair_time(s) + 2 * (s / self.model.bandwidth) * stretch
    if self.model.copy_bandwidth is not None:
        t += 2 * sum(edges) / self.model.copy_bandwidth
    return t


EDGES = [
    (),
    (0, 0, 0, 0),
    (640,),
    (7680, 7680, 0, 15360),
    (30720, 30720, 61440, 61440),
    (96, 104, 2048, 1000),
]

ARCTIC = arctic_cost_model()
MODELS = {
    "arctic": ARCTIC,
    "gigabit": gigabit_ethernet_cost_model(),
    "fast": fast_ethernet_cost_model(),
    "no-slave-path": dataclasses.replace(ARCTIC, slave_bw_factor=None),
    "no-pack": dataclasses.replace(ARCTIC, copy_bandwidth=None),
    "hops": dataclasses.replace(ARCTIC, hop_latency=0.37e-6),
}


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("mixmode", [False, True])
def test_analytic_composition_is_bitwise_the_old_one(name, mixmode):
    model = MODELS[name]
    for edges in EDGES:
        for n_ranks in (1, 16):
            assert model.exchange_time(edges, mixmode, n_ranks) == reference_analytic(
                model, edges, mixmode, n_ranks
            )


@pytest.mark.parametrize("name", ["arctic", "no-slave-path", "no-pack"])
@pytest.mark.parametrize("mixmode", [False, True])
def test_des_composition_is_bitwise_the_old_one(name, mixmode):
    backend = DESBackend(MODELS[name])
    for edges in EDGES:
        assert backend.exchange_time(edges, mixmode) == reference_des(backend, edges, mixmode)
