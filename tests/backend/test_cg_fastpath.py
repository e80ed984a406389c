"""The stacked-tile CG solver is bit-exact against the per-tile loop.

``tests/gcm/_reference_cg.py`` keeps the per-tile reference loop the
library used to carry; these tests run identical solves and identical
model configurations through both and require bitwise-identical
prognostic state and identical charged flops — on every way out of the
solver loop — and the library's reduction tree bitwise equal to the
oracle's butterfly.
"""

import math
import pathlib
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcm import cg, timestepper
from repro.gcm.grid import Grid, GridParams
from repro.gcm.ocean import ocean_model
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.tiling import Decomposition
from repro.precision.codec import CastingOperator
from repro.service.jobs import model_digest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "gcm"))
from _reference_cg import _default_gsum as butterfly_gsum  # noqa: E402
from _reference_cg import reference_cg, tile_apply, tile_precondition  # noqa: E402


@pytest.fixture
def reference_solver(monkeypatch):
    """Run the model's solves through the per-tile reference loop."""
    monkeypatch.setattr(timestepper, "preconditioned_cg", reference_cg)
    return monkeypatch


def _solve(rhs_global, solver, **kw):
    return _solve_counted(rhs_global, solver, **kw)[0]


def _solve_counted(rhs_global, solver, wrap=None, dtype=float, **kw):
    """One standalone solve; returns ``(CGResult, FlopCounter)``."""
    decomp = Decomposition(nx=16, ny=8, px=2, py=2)
    params = GridParams(nx=16, ny=8, nz=1, lat0=-60, lat1=60, total_depth=50.0)
    grid = Grid(params, decomp)
    operator = EllipticOperator(grid)
    if wrap is not None:
        operator = wrap(operator)
    o = decomp.olx
    rhs = []
    for t in decomp.tiles:
        arr = t.alloc2d(dtype)
        arr[o : o + t.ny, o : o + t.nx] = rhs_global[
            t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx
        ]
        rhs.append(arr)
    fc = FlopCounter()
    return solver(operator, rhs, fc, **{"tol": 1e-12, **kw}), fc


class TestStandaloneSolve:
    def test_solution_bitwise_equal(self):
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((8, 16))
        rhs -= rhs.mean()  # compatible RHS for the singular operator
        fast = _solve(rhs, cg.preconditioned_cg)
        ref = _solve(rhs, reference_cg)
        assert fast.iterations == ref.iterations
        assert fast.residual == ref.residual
        assert fast.initial_residual == ref.initial_residual
        for a, b in zip(fast.x, ref.x):
            np.testing.assert_array_equal(a, b)

    def test_zero_rhs_short_circuits_both_paths(self):
        rhs = np.zeros((8, 16))
        for solver in (cg.preconditioned_cg, reference_cg):
            res = _solve(rhs, solver)
            assert res.converged and res.iterations == 0


class TestFullModel:
    KW = dict(nx=16, ny=8, px=2, py=2, dt=1200.0)

    def _digest_and_flops(self, steps=6, **kw):
        m = ocean_model(**{**self.KW, **kw})
        m.run(steps)
        return model_digest(m), m.runtime.total_flops()

    def test_hydrostatic_model_bit_exact(self, reference_solver):
        ref = self._digest_and_flops(nz=4)
        reference_solver.undo()
        fast = self._digest_and_flops(nz=4)
        assert fast == ref

    def test_nonhydrostatic_model_bit_exact(self, reference_solver):
        ref = self._digest_and_flops(nz=4, nonhydrostatic=True, cg_tol=1e-11)
        reference_solver.undo()
        fast = self._digest_and_flops(nz=4, nonhydrostatic=True, cg_tol=1e-11)
        assert fast == ref


#: the values a global sum has to reproduce bit for bit: signed zeros,
#: subnormals, magnitudes whose sums overflow or cancel, inf and nan
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.0, 1e308,
           -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
           math.inf, -math.inf, math.nan]


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("n", range(1, 65))
def test_tree_gsum_is_the_butterfly_at_every_length(n):
    parts = [SPECIAL[(3 * i + n) % len(SPECIAL)] * (1 + i / 7) for i in range(n)]
    assert _bits(cg._default_gsum(parts)) == _bits(butterfly_gsum(parts))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=64))
def test_tree_gsum_is_the_butterfly_bitwise(parts):
    assert _bits(cg._default_gsum(parts)) == _bits(butterfly_gsum(parts))


class _Breakdown:
    """An elliptic operator whose ``A p`` is exactly zero from apply
    call ``after + 1`` on, so ``p.Ap == 0`` ends the solve there."""

    def __init__(self, operator, after):
        self.decomp, self._operator, self._left = operator.decomp, operator, after

    def _zero(self):
        self._left -= 1
        return self._left < 0

    def apply_stacked(self, x, flops):
        return np.zeros_like(x) if self._zero() else self._operator.apply_stacked(x, flops)

    def apply(self, tiles, flops):
        if self._zero():
            return [np.zeros_like(t) for t in tiles]
        return tile_apply(self._operator, tiles, flops)

    def precondition_stacked(self, r, flops):
        return self._operator.precondition_stacked(r, flops)

    def precondition(self, tiles, flops):
        return tile_precondition(self._operator, tiles, flops)


@pytest.fixture(scope="module")
def wire32_hooks():
    """The precision-config hooks ``Model._cg_hooks`` builds for a model
    with float32 exchange and gsum wires, bound to ``_solve``'s tiling."""
    model = ocean_model(nx=16, ny=8, nz=1, px=2, py=2, precision="wire32")
    gsum_hook, exch_hook = model._cg_hooks(Decomposition(nx=16, ny=8, px=2, py=2))
    assert gsum_hook is not None and exch_hook is not None
    return {"global_sum": gsum_hook, "exchange": exch_hook}


def _rhs(seed=7, scale=1.0):
    rhs = np.random.default_rng(seed).standard_normal((8, 16)) * scale
    return rhs - rhs.mean()


EXITS = {
    # case: (operator wrapper, rhs dtype, solve keywords)
    "float64": (None, np.float64, {}),
    "cast32": (lambda ell: CastingOperator(ell, np.float32), np.float32, {"tol": 1e-6}),
    "wire32-exchange": (None, np.float64, {"hooks": ["exchange"]}),
    "float32-gsum": (None, np.float64, {"hooks": ["global_sum"]}),
    "warm-start": (None, np.float64, {"warm": 5}),
    "warm-start-converged": (None, np.float64, {"warm": 500}),
    "maxiter": (None, np.float64, {"tol": 1e-14, "maxiter": 3}),
    "maxiter-zero": (None, np.float64, {"maxiter": 0}),
    "zero-rhs": (None, np.float64, {"scale": 0.0}),
    "breakdown-first": (lambda ell: _Breakdown(ell, 0), np.float64, {}),
    "breakdown-third": (lambda ell: _Breakdown(ell, 2), np.float64, {}),
}


@pytest.mark.parametrize("case", list(EXITS))
def test_every_exit_path_matches_the_oracle(case, wire32_hooks):
    """Solution with halos, iterations, residuals and every flop charged
    are identical to the per-tile loop's, whichever way the loop ends."""
    wrap, dtype, kw = EXITS[case]
    kw = dict(kw)
    rhs = _rhs(scale=kw.pop("scale", 1.0))
    hooks = {name: wire32_hooks[name] for name in kw.pop("hooks", [])}
    warm = kw.pop("warm", None)
    results = []
    for solver in (cg.preconditioned_cg, reference_cg):
        x0 = None
        if warm is not None:  # the start of a solve cut short at ``warm`` iterations
            x0 = _solve(rhs, cg.preconditioned_cg, maxiter=warm).x
        results.append(_solve_counted(rhs, solver, wrap=wrap, dtype=dtype, x0=x0, **kw, **hooks))
    (fast, fc_fast), (ref, fc_ref) = results
    assert (fast.iterations, fast.converged) == (ref.iterations, ref.converged)
    assert _bits(fast.residual) == _bits(ref.residual)
    assert _bits(fast.initial_residual) == _bits(ref.initial_residual)
    assert len(fast.x) == len(ref.x)
    for a, b in zip(fast.x, ref.x):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (fc_fast.total, fc_fast.by_kernel) == (fc_ref.total, fc_ref.by_kernel)
    breakdown_at = {"breakdown-first": 1, "breakdown-third": 3}
    if case in breakdown_at:
        assert fast.iterations == breakdown_at[case] and not fast.converged
