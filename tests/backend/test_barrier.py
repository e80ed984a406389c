"""A barrier is a dataless 8-byte global sum on every tier.

The analytic tier used to price the tuner's dissemination barrier while
the DES measured the folded butterfly: -23 % at N=3, -14 % at N=24,
invisible to a cross-validation that only ran powers of two.
"""

import pytest

from repro.backend import resolve_backend

N_VALUES = list(range(1, 18)) + [24]


@pytest.fixture(scope="module", params=["des", "analytic", "hybrid", None])
def backend(request):
    return resolve_backend(request.param)


def test_barrier_is_a_dataless_gsum(backend):
    for n in N_VALUES:
        assert backend.barrier_time(n) == backend.gsum_time(n, 8), n


def test_power_of_two_barriers_unchanged():
    """k rounds of 4.22 us, as before, on the calibrated tiers."""
    for name in ("des", "analytic", "hybrid"):
        be = resolve_backend(name)
        for k, n in enumerate((2, 4, 8, 16), start=1):
            assert be.barrier_time(n) == pytest.approx(k * 4.22e-6, rel=1e-9), (name, n)
