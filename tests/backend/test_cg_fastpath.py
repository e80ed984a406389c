"""The stacked-tile CG solver is bit-exact against the per-tile loop.

``tests/gcm/_reference_cg.py`` keeps the per-tile reference loop the
library used to carry; these tests run identical solves and identical
model configurations through both and require bitwise-identical
prognostic state and identical charged flops.
"""

import pathlib
import sys

import numpy as np
import pytest

from repro.gcm import cg, timestepper
from repro.gcm.grid import Grid, GridParams
from repro.gcm.ocean import ocean_model
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.tiling import Decomposition
from repro.service.jobs import model_digest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "gcm"))
from _reference_cg import reference_cg  # noqa: E402


@pytest.fixture
def reference_solver(monkeypatch):
    """Run the model's solves through the per-tile reference loop."""
    monkeypatch.setattr(timestepper, "preconditioned_cg", reference_cg)
    return monkeypatch


def _solve(rhs_global, solver):
    decomp = Decomposition(nx=16, ny=8, px=2, py=2)
    params = GridParams(nx=16, ny=8, nz=1, lat0=-60, lat1=60, total_depth=50.0)
    grid = Grid(params, decomp)
    operator = EllipticOperator(grid)
    o = decomp.olx
    rhs = []
    for t in decomp.tiles:
        arr = t.alloc2d(float)
        arr[o : o + t.ny, o : o + t.nx] = rhs_global[
            t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx
        ]
        rhs.append(arr)
    return solver(operator, rhs, FlopCounter(), tol=1e-12)


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
