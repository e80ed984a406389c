"""Tests of the Section 5.2 analytical performance model (eqs. 4-13)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS, OCN_PS_PARAMS, VALIDATION
from repro.core.perf_model import PerformanceModel

US = 1e-6
MIN = 60.0


def paper_atmosphere_model() -> PerformanceModel:
    return PerformanceModel(
        ps=ATM_PS_PARAMS,
        ds=DS_PARAMS,
    )


class TestPhaseTimes:
    def test_ps_compute_from_fig11(self):
        pm = paper_atmosphere_model()
        # 781 * 5120 / 50e6 s
        assert pm.tps_compute == pytest.approx(781 * 5120 / 50e6)

    def test_ps_exchange_is_five_exchanges(self):
        pm = paper_atmosphere_model()
        assert pm.tps_exch == pytest.approx(5 * 1640 * US)

    def test_ds_structure(self):
        pm = paper_atmosphere_model()
        assert pm.tds_compute == pytest.approx(36 * 1024 / 60e6)
        assert pm.tds_exch == pytest.approx(2 * 115 * US)
        assert pm.tds_gsum == pytest.approx(2 * 13.5 * US)
        assert pm.tds == pytest.approx(pm.tds_compute + pm.tds_exch + pm.tds_gsum)

    def test_trun_is_nt_tps_plus_ntni_tds(self):
        pm = paper_atmosphere_model()
        nt, ni = 100, 60
        assert pm.trun(nt, ni) == pytest.approx(nt * pm.tps + nt * ni * pm.tds)


class TestSection53Numbers:
    """The validation arithmetic must land on the paper's Table values."""

    def test_tcomm_about_30_minutes(self):
        pm = paper_atmosphere_model()
        tcomm = pm.tcomm(VALIDATION.nt, VALIDATION.ni)
        assert tcomm == pytest.approx(30.1 * MIN, rel=0.02)

    def test_tcomp_about_151_minutes(self):
        pm = paper_atmosphere_model()
        tcomp = pm.tcomp(VALIDATION.nt, VALIDATION.ni)
        assert tcomp == pytest.approx(151 * MIN, rel=0.01)

    def test_total_close_to_observed_183(self):
        pm = paper_atmosphere_model()
        total = pm.trun(VALIDATION.nt, VALIDATION.ni)
        assert total == pytest.approx(183 * MIN, rel=0.02)

    def test_trun_equals_tcomm_plus_tcomp(self):
        pm = paper_atmosphere_model()
        nt, ni = VALIDATION.nt, VALIDATION.ni
        assert pm.trun(nt, ni) == pytest.approx(pm.tcomm(nt, ni) + pm.tcomp(nt, ni))

    def test_comm_fraction_about_one_sixth(self):
        pm = paper_atmosphere_model()
        frac = pm.comm_fraction(VALIDATION.nt, VALIDATION.ni)
        assert 0.14 < frac < 0.19


class TestOceanParameters:
    def test_ocean_ps_heavier_than_atmosphere(self):
        atm = paper_atmosphere_model()
        ocn = PerformanceModel(
            ps=OCN_PS_PARAMS,
            ds=DS_PARAMS,
        )
        assert ocn.tps > atm.tps  # 3x the levels
        assert ocn.tds == pytest.approx(atm.tds)  # DS params shared


@given(
    nt=st.integers(min_value=1, max_value=10**6),
    ni=st.integers(min_value=1, max_value=500),
)
def test_property_decomposition_identity(nt, ni):
    """Trun always decomposes exactly into Tcomm + Tcomp (eqs. 11-13)."""
    pm = paper_atmosphere_model()
    assert pm.trun(nt, ni) == pytest.approx(pm.tcomm(nt, ni) + pm.tcomp(nt, ni), rel=1e-12)


@given(ni=st.floats(min_value=1.0, max_value=1000.0))
def test_property_sustained_rate_bounded_by_hardware(ni):
    pm = paper_atmosphere_model()
    rate = pm.sustained_flops(ni, n_ps_ranks=16, n_ds_ranks=8)
    assert 0 < rate < 16 * 60e6
