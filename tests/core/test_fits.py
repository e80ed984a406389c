"""Tests for the fitting utilities and the closed-loop fits:
measurements from our simulated hardware must yield constants close to
the paper's published fits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.des_exec import des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.core.fits import fit_bandwidth_model, fit_gsum_model, least_squares
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import ARCTIC_GSUM_MEASURED
from repro.parallel.des_collectives import des_transfer_bandwidth

US = 1e-6


class TestLeastSquares:
    def test_exact_line_recovered(self):
        fit = least_squares([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.offset == pytest.approx(1.0)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)
        assert fit(10) == pytest.approx(21.0)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            least_squares([1.0], [2.0])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            least_squares([2.0, 2.0], [1.0, 3.0])

    @given(
        a=st.floats(min_value=-100, max_value=100),
        b=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=30)
    def test_property_recovers_any_line(self, a, b):
        xs = [0.0, 1.0, 2.0, 5.0]
        fit = least_squares(xs, [a * x + b for x in xs])
        assert fit.slope == pytest.approx(a, abs=1e-9)
        assert fit.offset == pytest.approx(b, abs=1e-9)


class TestGsumFit:
    def test_paper_measurements_give_paper_fit(self):
        """Fitting the paper's own four latencies reproduces its
        published constants (4.67 log2 N - 0.95 us)."""
        fit = fit_gsum_model(ARCTIC_GSUM_MEASURED)
        assert fit.slope == pytest.approx(4.67 * US, rel=0.02)
        assert fit.offset == pytest.approx(-0.95 * US, rel=0.25)

    def test_des_measurements_give_comparable_fit(self):
        """Closing the loop: measure on the simulated hardware, fit the
        paper's model, land near the paper's slope."""
        measured = {}
        for n in (2, 4, 8, 16):
            measured[n] = des_time_schedule(
                HyadesCluster(), allreduce_butterfly(n, 8)
            )
        fit = fit_gsum_model(measured)
        assert fit.slope == pytest.approx(4.67 * US, rel=0.15)
        assert abs(fit.offset) < 1.0 * US

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fit_gsum_model({3: 1e-6, 6: 2e-6})


class TestBandwidthFit:
    def test_des_transfers_recover_vi_constants(self):
        """Fit t = o + s/B to DES transfer times: the 8.6 us / 110 MB/s
        constants of Section 4.1 fall out."""
        samples = {}
        for s in (1024, 4096, 16384, 65536):
            samples[s] = s / des_transfer_bandwidth(s)
        o, bw = fit_bandwidth_model(samples)
        assert o == pytest.approx(8.6 * US, rel=0.15)
        assert bw == pytest.approx(110e6, rel=0.03)

    def test_nonphysical_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_bandwidth_model({100: 1.0, 200: 0.5})
