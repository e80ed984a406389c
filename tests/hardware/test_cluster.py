"""Tests for Hyades cluster assembly, the SMP and PCI constants and
reference tables."""

import dataclasses

import numpy as np
import pytest

from repro.gcm.timestepper import ModelConfig
from repro.hardware import (
    HyadesCluster,
    HyadesConfig,
    VECTOR_MACHINES,
    fig10_reference_rows,
)
from repro.hardware import cluster
from repro.network.costmodel import arctic_cost_model
from repro.network.overheads import COPY_BANDWIDTH, SMP_LOCAL_COST
from repro.niu import pci
from repro.parallel.runtime import LockstepRuntime
from repro.parallel.tiling import Decomposition


class TestClusterAssembly:
    def test_default_is_sixteen_two_way_smps(self):
        c = HyadesCluster()
        assert c.n_nodes == 16
        assert len(c.nius) == 16
        # the production mix-mode runs two ranks per SMP
        assert ModelConfig().cpus_per_node == 2

    def test_each_node_has_own_niu_and_pci(self):
        c = HyadesCluster()
        nius = {id(c.niu(i)) for i in range(16)}
        pcis = {id(c.niu(i).pci) for i in range(16)}
        assert len(nius) == 16
        assert len(pcis) == 16

    def test_hardware_cost_under_100k(self):
        cfg = HyadesConfig()
        assert cfg.hardware_cost_usd < 100_000
        # "about evenly divided between the processing nodes and the
        # interconnect"
        nodes = cfg.n_nodes * cluster.NODE_PRICE_USD
        net = cfg.n_nodes * cluster.INTERCONNECT_PRICE_PER_NODE_USD
        assert nodes == pytest.approx(net, rel=0.25)

    def test_non_pow2_node_count_rejected_at_config(self):
        """The fat tree only exists for power-of-two node counts; the
        config boundary rejects others with the named error (still a
        ValueError for old callers)."""
        from repro.network.errors import EndpointCountError

        for bad in (0, 1, 3, 12, 100):
            with pytest.raises(EndpointCountError) as exc:
                HyadesConfig(n_nodes=bad)
            assert exc.value.n_endpoints == bad
            assert "Hyades fat tree" in str(exc.value)
        with pytest.raises(ValueError):
            HyadesConfig(n_nodes=12)

    def test_smaller_cluster_configurable(self):
        c = HyadesCluster(HyadesConfig(n_nodes=4))
        assert len(c.nius) == 4
        assert c.fabric.n == 4


class TestSMPNode:
    """A two-way SMP is priced where its costs are read: the runtime's
    rank placement and the comm model's combine and copy terms."""

    def test_global_cpu_ranks(self):
        # node 3's two CPUs run ranks 6 and 7 in the mix-mode layout
        rt = LockstepRuntime(Decomposition(64, 32, 4, 4, olx=3), cpus_per_node=2)
        assert np.flatnonzero(rt.rank_owner == 3).tolist() == [6, 7]
        assert rt.n_nodes == 8

    def test_local_combine_adds_about_1us(self):
        # Section 4.2: "local summing operation adds about 1 usec"; off
        # the paper's measured 2..16-node tables the fit adds it
        cm = arctic_cost_model()
        for n in (1, 32, 64, 128):
            assert cm.gsum_time(n, smp=True) - cm.gsum_time(n) == pytest.approx(SMP_LOCAL_COST)
        assert SMP_LOCAL_COST == pytest.approx(1.0e-6)

    def test_pack_cost_at_memcpy_bandwidth(self):
        # a strided halo is packed and unpacked at COPY_BANDWIDTH: the
        # exchange's copy term is 2 * bytes / COPY_BANDWIDTH
        cm = arctic_cost_model()
        unpacked = dataclasses.replace(cm, copy_bandwidth=None)
        edge = [100_000]
        assert cm.exchange_time(edge) - unpacked.exchange_time(edge) == pytest.approx(
            2 * 100_000 / COPY_BANDWIDTH)
        assert 100_000 / COPY_BANDWIDTH == pytest.approx(1e-3)

    def test_semaphore_op_advances_clock(self):
        # two semaphore operations (post, post back) make the combine
        assert SMP_LOCAL_COST / 2 == pytest.approx(0.5e-6)


class TestPCIParams:
    def test_section_21_measured_values(self):
        assert pci.MMAP_READ_LATENCY == pytest.approx(0.93e-6)
        assert pci.MMAP_WRITE_GAP == pytest.approx(0.18e-6)
        assert pci.DMA_BANDWIDTH >= 120e6

    def test_peak_is_132_mbs(self):
        assert pci.PEAK_BANDWIDTH == pytest.approx(132e6)


class TestVectorMachineTable:
    def test_fig10_rows_present(self):
        rows = fig10_reference_rows()
        names = {(r.machine, r.processors) for r in rows}
        assert ("Cray Y-MP", 1) in names
        assert ("NEC SX-4", 4) in names
        assert ("Hyades", 16) in names

    def test_sx4_fastest_single_vector_cpu(self):
        singles = [r for r in VECTOR_MACHINES if r.processors == 1]
        best = max(singles, key=lambda r: r.sustained_gflops)
        assert best.machine == "NEC SX-4"

    def test_hyades_16_comparable_to_one_vector_cpu(self):
        rows = {(r.machine, r.processors): r.sustained_gflops for r in fig10_reference_rows()}
        h16 = rows[("Hyades", 16)]
        assert rows[("Cray Y-MP", 1)] <= h16 + 0.1
        assert h16 < rows[("Cray C90", 4)]
