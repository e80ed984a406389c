"""Tests of the elliptic operator and the preconditioned CG solver."""

import numpy as np
import pytest

from repro.gcm.cg import preconditioned_cg
from repro.gcm.grid import Grid, GridParams
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.gcm.topography import double_basin
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition


def setup(nx=32, ny=16, nz=3, px=2, py=2, olx=1, depth=None):
    p = GridParams(nx=nx, ny=ny, nz=nz, lat0=-60, lat1=60, total_depth=900.0)
    d = Decomposition(nx, ny, px, py, olx=olx)
    g = Grid(p, d, depth=depth)
    return g, EllipticOperator(g)


def apply(ell, tiles, fc):
    """A x: the operator's interiors, set in tiles with zero halos."""
    stack = np.stack(tiles)
    out = np.zeros_like(stack)
    out[(Ellipsis,) + ell.decomp.tiles[0].interior] = ell.apply_interior(stack, fc)
    return out


def manufactured_rhs(grid, ell, seed=0):
    """b = A x_true for a random zero-mean x_true (guaranteed compatible)."""
    rng = np.random.default_rng(seed)
    o = grid.decomp.olx
    x_true = []
    for t in grid.decomp.tiles:
        a = t.alloc2d()
        a[t.interior] = rng.standard_normal((t.ny, t.nx))
        x_true.append(a)
    exchange_halos(grid.decomp, x_true)
    fc = FlopCounter()
    rhs = apply(ell, x_true, fc)
    return x_true, rhs


def remove_mean(grid, tiles, wet):
    o = grid.decomp.olx
    s, n = 0.0, 0
    for r, t in enumerate(grid.decomp.tiles):
        sl = t.interior
        m = wet[r][sl]
        s += float(np.sum(tiles[r][sl] * m))
        n += int(np.sum(m))
    mean = s / max(n, 1)
    return [np.where(wet[r], a - mean, a) for r, a in enumerate(tiles)]


class TestOperator:
    def test_symmetric(self):
        """<x, A y> == <A x, y> over interiors (the matrix is symmetric)."""
        g, ell = setup()
        fc = FlopCounter()
        x, _ = manufactured_rhs(g, ell, seed=1)
        y, _ = manufactured_rhs(g, ell, seed=2)
        ax = apply(ell, x, fc)
        ay = apply(ell, y, fc)
        o = g.decomp.olx

        def dot(a, b):
            return sum(
                float(np.sum(a[r][t.interior] * b[r][t.interior]))
                for r, t in enumerate(g.decomp.tiles)
            )

        assert dot(x, ay) == pytest.approx(dot(ax, y), rel=1e-10)

    def test_negative_semidefinite(self):
        g, ell = setup()
        fc = FlopCounter()
        for seed in range(3):
            x, _ = manufactured_rhs(g, ell, seed=seed)
            ax = apply(ell, x, fc)
            quad = sum(
                float(np.sum(x[r][t.interior] * ax[r][t.interior]))
                for r, t in enumerate(g.decomp.tiles)
            )
            assert quad <= 1e-9

    def test_constant_in_nullspace(self):
        """A(const) = 0 on the wet interior of a connected domain."""
        g, ell = setup()
        fc = FlopCounter()
        ones = [np.ones(t.shape2d) for t in g.decomp.tiles]
        a1 = apply(ell, ones, fc)
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            wet = ell.wet[r][t.interior]
            assert np.abs(a1[r][t.interior][wet]).max() < 1e-9

    def test_land_rows_identity(self):
        depth = double_basin(32, 16, depth=900.0, continent_width=4, polar_caps=1)
        g, ell = setup(depth=depth)
        fc = FlopCounter()
        p = [np.full(t.shape2d, 3.0) for t in g.decomp.tiles]
        ap = apply(ell, p, fc)
        for r, t in enumerate(g.decomp.tiles):
            dry = ~ell.wet[r][t.interior]
            if np.any(dry):
                np.testing.assert_allclose(ap[r][t.interior][dry], -3.0)


class TestCGSolver:
    def test_recovers_manufactured_solution(self):
        g, ell = setup()
        fc = FlopCounter()
        x_true, rhs = manufactured_rhs(g, ell)
        res = preconditioned_cg(ell, rhs, fc, tol=1e-12, maxiter=500)
        assert res.converged
        got = remove_mean(g, res.x, ell.wet)
        want = remove_mean(g, x_true, ell.wet)
        for r, t in enumerate(g.decomp.tiles):
            np.testing.assert_allclose(
                got[r][t.interior], want[r][t.interior], atol=1e-6
            )

    def test_matches_scipy_direct_solve(self):
        """Assemble the dense matrix on a tiny grid; compare solutions."""

        g, ell = setup(nx=8, ny=4, px=1, py=1)
        fc = FlopCounter()
        n = 8 * 4
        # build the matrix column by column through apply()
        cols = []
        o = g.decomp.olx
        t = g.decomp.tile(0)
        for j in range(4):
            for i in range(8):
                e = [t.alloc2d()]
                e[0][o + j, o + i] = 1.0
                exchange_halos(g.decomp, e)
                a = apply(ell, e, fc)[0][t.interior].ravel()
                cols.append(a)
        A = np.array(cols).T
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(n)
        x_true -= x_true.mean()
        b = A @ x_true
        rhs = [t.alloc2d()]
        rhs[0][t.interior] = b.reshape(4, 8)
        res = preconditioned_cg(ell, rhs, fc, tol=1e-13, maxiter=1000)
        got = res.x[0][t.interior].ravel()
        got -= got.mean()
        np.testing.assert_allclose(got, x_true, atol=1e-6)

    def test_zero_rhs_returns_zero_in_zero_iterations(self):
        g, ell = setup()
        fc = FlopCounter()
        rhs = [t.alloc2d() for t in g.decomp.tiles]
        res = preconditioned_cg(ell, rhs, fc)
        assert res.iterations == 0 and res.converged
        for a in res.x:
            assert np.all(a == 0)

    def test_communication_counts_two_gsums_one_exchange_per_iter(self):
        """The paper's DS accounting: 2 global sums + 1 exchange call per
        solver iteration (the runtime charges it as two fields)."""
        g, ell = setup()
        fc = FlopCounter()
        _, rhs = manufactured_rhs(g, ell)
        gsums, shapes = [], []

        def gsum(parts):
            gsums.append(parts)
            return float(np.sum(parts))

        def exch(fields):
            shapes.extend(f.shape for f in fields)
            for f in fields:
                exchange_halos(g.decomp, f, width=1)

        res = preconditioned_cg(ell, rhs, fc, tol=1e-12, maxiter=300, global_sum=gsum, exchange=exch)
        ni = res.iterations
        n_ranks, tile = g.decomp.n_ranks, g.decomp.tiles[0].shape2d
        # +1 initial gsum; exchanges: the search direction per iteration,
        # then the solution's refresh, each one single-field stack (the
        # residual's halo is never read, so the host never fills it)
        assert len(gsums) == 2 * ni + 1
        assert shapes == [(n_ranks,) + tile] * (ni + 1)

    def test_converges_with_island_topography(self):
        depth = double_basin(32, 16, depth=900.0, continent_width=4, polar_caps=1)
        g, ell = setup(depth=depth)
        fc = FlopCounter()
        _, rhs = manufactured_rhs(g, ell, seed=7)
        # zero the rhs on land (physical RHS is wet-only)
        rhs = [np.where(ell.wet[r], a, 0.0) for r, a in enumerate(rhs)]
        res = preconditioned_cg(ell, rhs, fc, tol=1e-10, maxiter=500)
        assert res.converged

    def test_decomposition_invariant_iterates(self):
        """Same problem, different tilings: same iteration count and
        solution to tight tolerance."""
        results = {}
        for px, py in ((1, 1), (2, 2), (4, 2)):
            g, ell = setup(px=px, py=py)
            fc = FlopCounter()
            # same global RHS everywhere
            rng = np.random.default_rng(11)
            rhs_g = rng.standard_normal((16, 32))
            rhs_g -= rhs_g.mean()
            from repro.parallel.exchange import HaloExchanger

            rhs = HaloExchanger(g.decomp).scatter_global(rhs_g)
            res = preconditioned_cg(ell, rhs, fc, tol=1e-11, maxiter=500)
            sol = HaloExchanger(g.decomp).gather_global(res.x)
            sol -= sol.mean()
            results[(px, py)] = (res.iterations, sol)
        base_it, base_sol = results[(1, 1)]
        for key, (it, sol) in results.items():
            assert abs(it - base_it) <= 1
            np.testing.assert_allclose(sol, base_sol, atol=1e-7)

    def test_x0_warm_start(self):
        g, ell = setup()
        fc = FlopCounter()
        x_true, rhs = manufactured_rhs(g, ell, seed=5)
        cold = preconditioned_cg(ell, rhs, fc, tol=1e-10, maxiter=500)
        warm = preconditioned_cg(ell, rhs, fc, tol=1e-10, maxiter=500, x0=cold.x)
        assert warm.iterations <= max(cold.iterations // 4, 1)


class TestCGFailureModes:
    def test_maxiter_exhaustion_reports_unconverged(self):
        g, ell = setup()
        fc = FlopCounter()
        _, rhs = manufactured_rhs(g, ell, seed=21)
        res = preconditioned_cg(ell, rhs, fc, tol=1e-14, maxiter=2)
        assert not res.converged
        assert res.iterations == 2
        assert res.residual > 0

    def test_unconverged_solution_still_usable(self):
        """Early-stopped CG returns the best iterate, not garbage: its
        residual is below the initial residual."""
        g, ell = setup()
        fc = FlopCounter()
        _, rhs = manufactured_rhs(g, ell, seed=22)
        res = preconditioned_cg(ell, rhs, fc, tol=1e-14, maxiter=5)
        assert res.residual < res.initial_residual
