"""Tests for the topology zoo: registry, geometry, fabrics, crossval."""

import pytest

from repro.sim import Engine
from repro.network.errors import EndpointCountError, TopologyError
from repro.network.fabrics import HubFabric
from repro.network.packet import Packet
from repro.network.topology import (
    SCOREBOARD_TOPOLOGIES,
    TOPOLOGIES,
    GridTopology,
    HyperCrossbarTopology,
    balanced_dims,
    grid_distance,
    node_coords,
    crossvalidate_topology,
    make_topology,
    register_topology,
    topology_names,
)


class TestRegistry:
    def test_every_scoreboard_name_registered(self):
        assert set(SCOREBOARD_TOPOLOGIES) <= set(topology_names())

    def test_make_each_at_64(self):
        for name in topology_names():
            topo = make_topology(name, 64)
            assert topo.n_endpoints == 64
            assert topo.name == name
            d = topo.describe()
            assert d["topology"] == name and d["n_endpoints"] == 64

    def test_unknown_name_raises_topology_error(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            make_topology("nosuch", 16)

    def test_register_custom(self):
        calls = []

        def factory(n):
            calls.append(n)
            return make_topology("ethernet", n)

        register_topology("_test_custom", factory)
        try:
            topo = make_topology("_test_custom", 8)
            assert calls == [8] and topo.n_endpoints == 8
        finally:
            del TOPOLOGIES["_test_custom"]

    def test_non_pow2_rejected_by_name(self):
        for name in ("fattree", "torus2d", "torus3d", "hypercrossbar"):
            with pytest.raises(EndpointCountError):
                make_topology(name, 12)


class TestBalancedDims:
    def test_even_split(self):
        assert balanced_dims(256, 2) == (16, 16)
        assert balanced_dims(4096, 3) == (16, 16, 16)

    def test_extra_factor_on_axis0(self):
        assert balanced_dims(512, 2) == (32, 16)
        assert balanced_dims(1024, 3) == (16, 8, 8)

    def test_too_small_for_ndim(self):
        with pytest.raises(EndpointCountError):
            balanced_dims(4, 3)  # would need a 1-extent axis

    def test_non_pow2(self):
        with pytest.raises(EndpointCountError):
            balanced_dims(48, 2)


class TestGeometry:
    def test_fattree_hops(self):
        t = make_topology("fattree", 16)
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 1) == 2
        assert t.hop_distance(0, 15) == 8
        assert t.max_hop_distance() == 8
        assert t.bisection_links() == 8

    def test_torus_wraps_shorter_way(self):
        t = make_topology("torus2d", 16)  # 4x4
        # axis-0 neighbours: one grid link + inject/deliver
        assert t.hop_distance(0, 1) == 3
        # 0 -> 3 wraps: distance 1 on a ring of 4
        assert t.hop_distance(0, 3) == 3
        mesh = make_topology("mesh2d", 16)
        assert mesh.hop_distance(0, 3) == 5  # no wrap: 3 grid links

    def test_torus_bisection_doubles_mesh(self):
        torus = make_topology("torus2d", 64)
        mesh = make_topology("mesh2d", 64)
        assert torus.bisection_links() == 2 * mesh.bisection_links()

    def test_hypercrossbar_bounded_hops(self):
        t = make_topology("hypercrossbar", 512)  # 8x8x8
        assert t.max_hop_distance() == 8  # 2 + 2 per differing axis
        for dst in (1, 9, 511):
            assert t.hop_distance(0, dst) <= 8

    def test_ethernet_is_flat_and_shared(self):
        t = make_topology("ethernet", 16)
        assert t.shared_medium
        assert t.max_hop_distance() == 1
        # half-duplex shared medium: no x2 in the bisection
        assert t.bisection_bandwidth() == t.link_bandwidth

    def test_cost_model_carries_hop_latency(self):
        t = make_topology("torus3d", 4096)
        m = t.cost_model()
        assert m.hop_latency == pytest.approx(
            t.neighbor_hops() * t.stage_latency
        )
        # the surcharge is part of every transfer quote
        base = m.transfer_overhead + m.hop_latency
        assert m.transfer_time(0) == pytest.approx(base)


class TestFabricDelivery:
    def _deliver_all_pairs(self, fabric, engine, n):
        inbox = {ep: [] for ep in range(n)}
        for ep in range(n):
            fabric.attach_endpoint(ep, lambda p, ep=ep: inbox[ep].append(p))
        for s in range(n):
            for d in range(n):
                if s != d:
                    fabric.inject(Packet(src=s, dst=d, payload_words=[s, d]))
        engine.run()
        for d in range(n):
            assert sorted(p.src for p in inbox[d]) == sorted(
                s for s in range(n) if s != d
            )

    def test_grid_fabric_all_pairs(self):
        eng = Engine()
        torus = GridTopology(8, ndim=2, wrap=True, dims=(4, 2))
        self._deliver_all_pairs(torus.build_fabric(eng), eng, 8)

    def test_mesh_fabric_all_pairs(self):
        eng = Engine()
        mesh = GridTopology(8, ndim=2, wrap=False, dims=(4, 2))
        self._deliver_all_pairs(mesh.build_fabric(eng), eng, 8)

    def test_crossbar_fabric_all_pairs(self):
        eng = Engine()
        xbar = HyperCrossbarTopology(8, dims=(2, 2, 2))
        self._deliver_all_pairs(xbar.build_fabric(eng), eng, 8)

    def test_hub_fabric_all_pairs(self):
        eng = Engine()
        self._deliver_all_pairs(make_topology("ethernet", 8).build_fabric(eng), eng, 8)

    def test_hub_station_killed_mid_stream_is_fully_accounted(self):
        """Sends from a dead station are refused at the source; the
        counter must show up in ``fault_counters()`` or packets vanish
        from the books on the shared medium."""
        eng = Engine()
        hub = HubFabric(eng, make_topology("ethernet", 4))  # at Arctic link speed
        delivered = []
        for ep in range(4):
            hub.attach_endpoint(ep, delivered.append)
        injected = 0
        for k in range(12):  # stations 1 and 2 both stream, one packet / us
            for src, dst in ((1, 0), (2, 1), (1, 1)):
                eng.schedule_at(
                    k * 1e-6, hub.inject, Packet(src=src, dst=dst, payload_words=[k, src])
                )
                injected += 1
        eng.schedule_at(5.5e-6, hub.kill_endpoint, 1)
        eng.run()
        fc = hub.fault_counters()
        assert fc["source_drops"] == hub.dropped_at_source == 12  # 6 us x (1->0, 1->1)
        assert fc["blackholed"] == 6  # 2->1 after the crash
        assert len(delivered) == 6 * 3
        assert injected == (
            len(delivered) + fc["link_drops"] + fc["router_crc_drops"]
            + fc["blackholed"] + fc["source_drops"] + hub.links[0].queued
        )

    def test_source_drops_is_zero_where_injection_links_exist(self):
        eng = Engine()
        for topo in (make_topology("torus2d", 4), HyperCrossbarTopology(4, dims=(2, 2))):
            fabric = topo.build_fabric(eng)
            fabric.kill_endpoint(0)
            fabric.inject(Packet(src=0, dst=1))
            eng.run()
            fc = fabric.fault_counters()
            assert fc["source_drops"] == 0 and fc["link_drops"] == 1

    def test_grid_coords_roundtrip(self):
        dims = (4, 2, 8)
        for node in (0, 1, 17, 63):
            assert (
                node_coords(node, dims)[0] == node % 4
            )  # axis 0 fastest
            c = node_coords(node, dims)
            back = sum(
                ci * s
                for ci, s in zip(c, (1, 4, 8))
            )
            assert back == node
        assert grid_distance(0, 3, (4, 4), wrap=True) == 1
        assert grid_distance(0, 3, (4, 4), wrap=False) == 3


class TestCrossValidation:
    @pytest.mark.parametrize("name", SCOREBOARD_TOPOLOGIES)
    def test_within_ten_percent_at_16(self, name):
        r = crossvalidate_topology(make_topology(name, 16))
        assert r["rel_err"] <= 0.10, (
            f"{name}: DES {r['des_s']:.3e}s vs model "
            f"{r['predicted_s']:.3e}s ({r['rel_err']:.1%})"
        )

    def test_fattree_crossval_pairs_are_max_distance(self):
        t = make_topology("fattree", 16)
        for s, d in t.crossval_pairs():
            assert t.hop_distance(s, d) == t.max_hop_distance()
