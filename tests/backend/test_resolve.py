"""Backend resolution: names, instances and defaults."""

import pytest

from repro.backend import (
    BACKEND_NAMES,
    AnalyticBackend,
    CommBackend,
    DESBackend,
    HybridBackend,
    resolve_backend,
)
from repro.network.costmodel import fast_ethernet_cost_model


class TestNames:
    def test_registry_names_are_the_documented_trio(self):
        assert BACKEND_NAMES == ("des", "analytic", "hybrid")

    @pytest.mark.parametrize(
        "name,cls",
        [("des", DESBackend), ("analytic", AnalyticBackend), ("hybrid", HybridBackend)],
    )
    def test_name_resolves_to_tier(self, name, cls):
        be = resolve_backend(name)
        assert isinstance(be, cls)
        assert be.name == name

    def test_names_are_case_insensitive(self):
        assert isinstance(resolve_backend("DES"), DESBackend)

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValueError, match="analytic"):
            resolve_backend("quantum")

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(3.14)


class TestInstances:
    def test_instance_passes_through_identically(self):
        be = DESBackend()
        assert resolve_backend(be) is be

    def test_other_interconnect_quotes_its_own_gsum_fit(self):
        # Fig. 12: 942 us on Fast Ethernet, not StarT-X PIO's 16.88 us —
        # the tuned schedule costs only apply to the Arctic model
        be = AnalyticBackend(model=fast_ethernet_cost_model())
        assert be.gsum_time(16) == pytest.approx(942e-6)
        assert be.describe()["gsum_source"] == "measured-table"


class TestDefault:
    def test_none_gives_legacy_equivalent_analytic(self):
        be = resolve_backend(None)
        assert isinstance(be, AnalyticBackend)
        # the default reproduces the paper's figures: measured gsum
        # tables, not the tuner-calibrated variant
        assert be.gsum_time(16) == pytest.approx(18.2e-6)


class TestContract:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_describe_is_json_ready(self, name):
        d = resolve_backend(name).describe()
        assert d["backend"] == name
        assert "model" in d

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_begin_window_accepted_by_every_tier(self, name):
        be = resolve_backend(name)
        be.begin_window(False)
        be.begin_window(True)
        assert isinstance(be, CommBackend)

    def test_tier_property_reports_active_fidelity(self):
        hb = resolve_backend("hybrid")
        assert hb.tier_stats()["active"] == "analytic"  # steady-state default
        hb.begin_window(True)
        assert hb.tier_stats()["active"] == "des"
        hb.begin_window(False)
        assert hb.tier_stats()["active"] == "analytic"
