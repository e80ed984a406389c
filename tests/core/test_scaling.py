"""Tests for the scaling-study sweeps."""

import pytest

from repro.core.scaling import cpu_sweep, model_at, resolution_sweep
from repro.network.costmodel import arctic_cost_model, fast_ethernet_cost_model


class TestModelAt:
    def test_single_cpu_perfect_efficiency(self):
        p = model_at(1)
        assert p.efficiency == 1.0
        assert p.sustained == pytest.approx(0.051e9, rel=0.05)

    def test_sixteen_cpus_matches_fig10_regime(self):
        p = model_at(16)
        assert 0.55e9 < p.sustained < 0.95e9

    def test_untileable_configuration_rejected(self):
        with pytest.raises(ValueError):
            model_at(16, nx=30, ny=64)

    def test_pfpp_fields_populated(self):
        p = model_at(16)
        assert p.pfpp_ds > 0 and p.pfpp_ps > 0


class TestSweeps:
    def test_arctic_sustained_monotone_through_64(self):
        pts = cpu_sweep((1, 2, 4, 8, 16, 32, 64), cost_model=arctic_cost_model())
        rates = [p.sustained for p in pts]
        assert rates == sorted(rates)

    def test_efficiency_never_exceeds_one(self):
        for cm in (arctic_cost_model(), fast_ethernet_cost_model()):
            for p in cpu_sweep((1, 4, 16, 64), cost_model=cm):
                assert p.efficiency <= 1.0 + 1e-9

    def test_fe_aggregate_peaks_before_64(self):
        pts = cpu_sweep((1, 4, 16, 64), cost_model=fast_ethernet_cost_model())
        rates = [p.sustained for p in pts]
        assert max(rates) != rates[-1]

    def test_resolution_sweep_shapes(self):
        pts = resolution_sweep((1, 2))
        assert pts[0].nx == 128 and pts[1].nx == 256
        assert pts[1].efficiency >= pts[0].efficiency

    def test_interconnect_ordering_at_every_size(self):
        for n in (4, 16, 64):
            a = model_at(n, cost_model=arctic_cost_model())
            f = model_at(n, cost_model=fast_ethernet_cost_model())
            assert a.sustained > f.sustained
