"""Determinism and vertical-grid tests."""

import numpy as np
import pytest

from repro.gcm.grid import GridParams
from repro.gcm.ocean import ocean_model
from repro.gcm.topography import stretched_layers


class TestBitwiseDeterminism:
    """Numerical experiments must be exactly repeatable — the property
    the canonical-order butterfly sum exists to protect (Section 4.2)."""

    def test_identical_runs_bitwise_equal(self):
        def run():
            m = ocean_model(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
            m.run(6)
            return m

        a, b = run(), run()
        for name in ("u", "v", "theta", "tracer", "ps"):
            ga, gb = a.state.to_global(name), b.state.to_global(name)
            np.testing.assert_array_equal(ga, gb, err_msg=name)
        assert a.runtime.elapsed == b.runtime.elapsed
        assert [h.ni for h in a.history] == [h.ni for h in b.history]

    def test_des_runs_bitwise_deterministic(self):
        from repro.collectives.des_exec import des_run_schedule
        from repro.collectives.schedules import allreduce_butterfly
        from repro.hardware.cluster import HyadesCluster

        def run():
            return des_run_schedule(
                HyadesCluster(),
                allreduce_butterfly(16, 8),
                [0.1 * i for i in range(16)],
            )

        ra, ta = run()
        rb, tb = run()
        assert ra == rb and ta == tb


class TestStretchedLayers:
    def test_sums_exactly_to_depth(self):
        drf = stretched_layers(30, 4000.0, 10.0)
        assert drf.sum() == pytest.approx(4000.0, abs=1e-9)
        assert len(drf) == 30

    def test_monotone_thickening(self):
        drf = stretched_layers(20, 4000.0, 10.0)
        assert np.all(np.diff(drf) > 0)
        assert drf[0] == pytest.approx(10.0, rel=0.01)

    def test_degenerate_falls_back_to_uniform(self):
        drf = stretched_layers(4, 100.0, 50.0)  # cannot stretch
        np.testing.assert_allclose(drf, 25.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stretched_layers(0, 100.0, 1.0)
        with pytest.raises(ValueError):
            stretched_layers(5, -1.0, 1.0)

    def test_model_runs_on_stretched_grid(self):
        from repro.gcm import diagnostics as diag

        drf = stretched_layers(8, 4000.0, 50.0)
        grid = GridParams(nx=32, ny=16, nz=8, lat0=-80, lat1=80, drf=tuple(drf))
        m = ocean_model(nx=32, ny=16, nz=8, px=2, py=2, dt=600.0, grid=grid)
        m.run(4)
        assert diag.is_finite(m)
        assert m.grid.drf[0] < m.grid.drf[-1]
