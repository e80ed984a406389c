"""Tests for the non-hydrostatic extension (Section 3's general kernel)."""

import numpy as np
import pytest

from repro.gcm import diagnostics as diag
from repro.gcm.cg import preconditioned_cg
from repro.gcm.grid import Grid, GridParams
from repro.gcm.nonhydrostatic import NonHydrostaticOperator, divergence3
from repro.gcm.ocean import ocean_model
from repro.gcm.operators import FlopCounter
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition


def make_operator(nx=16, ny=8, nz=4, px=2, py=2):
    g = Grid(
        GridParams(nx=nx, ny=ny, nz=nz, lat0=-40, lat1=40, total_depth=1000.0),
        Decomposition(nx, ny, px, py, olx=1),
    )
    return g, NonHydrostaticOperator(g)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    tiles = []
    for t in grid.decomp.tiles:
        a = t.alloc3d(grid.nz)
        a[(slice(None),) + t.interior] = rng.standard_normal((grid.nz, t.ny, t.nx))
        tiles.append(a)
    exchange_halos(grid.decomp, tiles, width=1)
    return tiles


class TestOperator:
    def test_symmetric(self):
        g, ell = make_operator()
        fc = FlopCounter()
        x = random_field(g, 1)
        y = random_field(g, 2)
        ax, ay = ell.apply_stacked(np.stack(x), fc), ell.apply_stacked(np.stack(y), fc)

        def dot(a, b):
            return sum(
                float(np.sum(a[r][(Ellipsis,) + t.interior] * b[r][(Ellipsis,) + t.interior]))
                for r, t in enumerate(g.decomp.tiles)
            )

        assert dot(x, ay) == pytest.approx(dot(ax, y), rel=1e-10)

    def test_negative_semidefinite(self):
        g, ell = make_operator()
        fc = FlopCounter()
        for seed in range(3):
            x = random_field(g, seed)
            ax = ell.apply_stacked(np.stack(x), fc)
            quad = sum(
                float(np.sum(x[r][(Ellipsis,) + t.interior] * ax[r][(Ellipsis,) + t.interior]))
                for r, t in enumerate(g.decomp.tiles)
            )
            assert quad <= 1e-9

    def test_constant_nullspace(self):
        g, ell = make_operator()
        fc = FlopCounter()
        ones = [np.ones(t.shape3d(g.nz)) for t in g.decomp.tiles]
        a1 = ell.apply_stacked(np.stack(ones), fc)
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            interior = a1[r][:, o : o + t.ny, o : o + t.nx]
            wet = ell.wet[r][:, o : o + t.ny, o : o + t.nx]
            assert np.abs(interior[wet]).max() < 1e-9

    def test_vertical_coupling_present(self):
        """A vertically-varying field must feel the vertical terms."""
        g, ell = make_operator()
        fc = FlopCounter()
        x = [np.ones(t.shape3d(g.nz)) for t in g.decomp.tiles]
        for a in x:
            a[0] = 2.0  # jump across the first interior face
        ax = ell.apply_stacked(np.stack(x), fc)
        o = g.decomp.olx
        assert np.abs(ax[0][:2, o + 1, o + 1]).max() > 0

    def test_cg_solves_manufactured_3d(self):
        g, ell = make_operator()
        fc = FlopCounter()
        x_true = random_field(g, 7)
        rhs = ell.apply_stacked(np.stack(x_true), fc)
        # the vertical/lateral conductance anisotropy (~1e5) makes this
        # ill-conditioned; drive CG hard and accept a loose solution
        # tolerance (the residual-norm convergence itself is asserted)
        res = preconditioned_cg(ell, rhs, fc, tol=1e-13, maxiter=5000)
        assert res.converged
        # compare up to the constant nullspace
        o = g.decomp.olx

        def demean(tiles):
            s = n = 0.0
            for r, t in enumerate(g.decomp.tiles):
                sl = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
                s += float(np.sum(tiles[r][sl]))
                n += tiles[r][sl].size
            return [a - s / n for a in tiles]

        got, want = demean(res.x), demean(x_true)
        for r, t in enumerate(g.decomp.tiles):
            sl = (slice(None), slice(o, o + t.ny), slice(o, o + t.nx))
            np.testing.assert_allclose(got[r][sl], want[r][sl], atol=1e-4)


class TestNonHydrostaticModel:
    @pytest.fixture(scope="class")
    def nh(self):
        m = ocean_model(
            nx=32, ny=16, nz=6, px=2, py=2, dt=600.0, nonhydrostatic=True, cg_tol=1e-10
        )
        m.run(5)
        return m

    def test_stable_and_finite(self, nh):
        assert diag.is_finite(nh)
        assert all(h.nh_converged for h in nh.history)

    def test_three_d_divergence_vanishes(self, nh):
        u = [a.copy() for a in nh.state["u"]]
        v = [a.copy() for a in nh.state["v"]]
        w = [a.copy() for a in nh.state["w"]]
        for f in (u, v, w):
            exchange_halos(nh.decomp, f, width=1)
        d3 = divergence3(nh.nh_operator, u, v, w)
        typical = abs(nh.state.to_global("u")).max() * nh.grid.drf[0] * 3.5e5
        assert d3 < 1e-4 * typical

    def test_w_scale_is_nonhydrostatically_small(self, nh):
        """At hydrostatic aspect ratios (350 km x 170 m cells) the
        projected w must be orders of magnitude below u."""
        w = np.abs(nh.state.to_global("w")).max()
        u = np.abs(nh.state.to_global("u")).max()
        assert w < 1e-2 * u

    def test_rigid_lid_face_stays_zero(self, nh):
        w = nh.state.to_global("w")
        assert np.abs(w[0]).max() == 0.0

    def test_nh_accounting_recorded(self, nh):
        h = nh.history[-1]
        assert h.ni_nh > 0
        assert h.flops_nh > 0
        assert h.t_nh > 0

    def test_hydrostatic_limit_agreement(self):
        """At large scales the non-hydrostatic solution tracks the
        hydrostatic one (the paper: 'In the hydrostatic limit the
        non-hydrostatic pressure component is negligible')."""
        kw = dict(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0, cg_tol=1e-11)
        a = ocean_model(nonhydrostatic=False, **kw)
        b = ocean_model(nonhydrostatic=True, **kw)
        a.run(4)
        b.run(4)
        ua, ub = a.state.to_global("u"), b.state.to_global("u")
        scale = np.abs(ua).max()
        assert np.abs(ua - ub).max() < 0.02 * scale

    def test_nh_costs_more_than_hydrostatic(self):
        kw = dict(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
        a = ocean_model(nonhydrostatic=False, **kw)
        b = ocean_model(nonhydrostatic=True, **kw)
        a.run(3)
        b.run(3)
        assert b.runtime.elapsed > a.runtime.elapsed

    def test_decomposition_invariance_nh(self):
        def run(px, py):
            m = ocean_model(
                nx=32, ny=16, nz=4, px=px, py=py, dt=600.0,
                nonhydrostatic=True, cg_tol=1e-12,
            )
            m.run(3)
            return m.state.to_global("u")

        ua, ub = run(1, 1), run(2, 2)
        scale = np.abs(ua).max() + 1e-30
        assert np.abs(ua - ub).max() < 1e-9 * scale
