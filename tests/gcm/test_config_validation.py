"""Tests for configuration validation and runtime traffic accounting."""

import pytest

from repro.gcm.ocean import ocean_model
from repro.gcm.timestepper import Model, ModelConfig
from repro.gcm.grid import GridParams


class TestConfigValidation:
    def base(self, **kw):
        cfg = ModelConfig(grid=GridParams(nx=32, ny=16, nz=4), px=2, py=2)
        for k, v in kw.items():
            setattr(cfg, k, v)
        return cfg

    def test_valid_config_builds(self):
        Model(self.base())

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("dt", 0.0, "dt"),
            ("dt", -10.0, "dt"),
            ("cg_tol", 0.0, "cg_tol"),
            ("cg_maxiter", 0, "cg"),
            ("olx", 0, "halo"),
            # a PS step chains two lateral stencils: one ring would let
            # interiors read wrapped values and depend on the tiling
            ("olx", 1, "halo"),
            ("px", 0, "process grid"),
            ("cpus_per_node", 0, "cpus_per_node"),
        ],
    )
    def test_bad_values_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            Model(self.base(**{field: value}))


class TestTrafficAccounting:
    def test_bytes_exchanged_match_edge_arithmetic(self):
        m = ocean_model(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
        m.step()
        # 5 PS fields of halo-3 exchange per step
        expected = 5 * sum(
            sum(m.decomp.edge_bytes(nz=4, rank=r)) for r in range(4)
        )
        total = sum(st.bytes_exchanged for st in m.runtime.stats)
        assert total == expected

    def test_summary_exposes_traffic(self):
        m = ocean_model(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
        m.run(2)
        s = m.runtime.summary()
        assert s["total_bytes_exchanged"] > 0

    def test_traffic_scales_with_steps(self):
        m = ocean_model(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
        m.step()
        one = sum(st.bytes_exchanged for st in m.runtime.stats)
        m.step()
        two = sum(st.bytes_exchanged for st in m.runtime.stats)
        assert two == 2 * one
