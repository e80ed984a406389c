"""Exact call-count budgets for the GCM step hot path.

Counts are noise-free where timings are not: a per-tile kernel loop, a
per-halo copy loop on stacked fields or a per-field pricing loop
re-introduced into the step moves these numbers on every host, every
run.  ``scripts/ci.sh`` runs this file as its own named stage, next to
the DES event budget.  A change that *lowers* a count updates the pin; a
change that raises one has to say why.
"""

import numpy as np
import pytest

from repro.gcm import cg, prognostic, timestepper
from repro.gcm.coupled import coupled_model
from repro.gcm.operators import FlopCounter
from repro.parallel import globalsum
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition

#: the reduced configuration of ``perf``'s ``gcm_reduced`` workload
REDUCED = dict(nx=64, ny=32, nz_atm=5, nz_ocn=8, px=4, py=4, coupling_interval=2)
TILES = REDUCED["px"] * REDUCED["py"]


@pytest.fixture(scope="module")
def reduced():
    cm = coupled_model(backend="analytic", **REDUCED)
    cm.step_coupled()  # warm-up window: plans, quotes and edge tables exist
    return cm


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class _CountingStack(np.ndarray):
    """An array that counts the copies made into it."""

    copies = 0

    def __setitem__(self, index, value):
        type(self).copies += 1
        super().__setitem__(index, value)


def test_the_step_batches_four_tiles_per_kernel_call(reduced):
    # 16x8-column tiles with a 3-wide halo: 4 tiles fit BATCH_CELLS at
    # both 5 and 8 levels
    for model in (reduced.atmosphere, reduced.ocean):
        assert [(sl.start, sl.stop) for sl in model._batches] == [
            (0, 4), (4, 8), (8, 12), (12, 16)
        ]


@pytest.mark.parametrize("component", ["atmosphere", "ocean"])
def test_kernel_invocations_per_step_are_tiles_over_batch(monkeypatch, reduced, component):
    model = getattr(reduced, component)
    n_batches = len(model._batches)
    assert n_batches == TILES // 4
    kernels = {
        name: _count_calls(monkeypatch, timestepper, name)
        for name in ("compute_g_terms", "provisional_velocity", "correct_velocity",
                     "depth_integrate")
    }
    tracers = _count_calls(monkeypatch, prognostic.op, "advect_tracer")
    model.step()
    for name, calls in kernels.items():
        assert len(calls) == n_batches, name  # not TILES
    assert len(tracers) == 2 * n_batches  # theta and the tracer, once per batch


@pytest.mark.parametrize("shape", [(8,), ()], ids=["3d", "2d"])
def test_a_stacked_exchange_is_four_copies(shape):
    decomp = Decomposition(64, 32, 4, 4, olx=3)
    tile = decomp.tiles[0]
    stack = np.zeros((decomp.n_ranks,) + shape + tile.shape2d).view(_CountingStack)
    for width in (1, 3):
        _CountingStack.copies = 0
        exchange_halos(decomp, stack, width)
        assert _CountingStack.copies == 4  # west, east, south, north


def test_exchange_quotes_per_ps_exchange(monkeypatch, reduced):
    model = reduced.ocean
    rt = model.runtime
    quotes = _count_calls(monkeypatch, rt.backend, "exchange_time")
    edges = _count_calls(monkeypatch, rt.decomp, "edge_bytes")
    fields = [model.state[name] for name in model._ps_names]
    rt.exchange(fields, width=3, itemsize=model._ps_itemsizes)
    # five fields of one shape share one quote per distinct edge set:
    # south-wall, interior and north-wall tiles (<= one per rank)
    assert len(quotes) == 3 <= TILES
    assert len(edges) == 0  # the per-rank edge table is kept


class _CountingFlops(FlopCounter):
    """A flop counter that also counts its ``add`` calls per kernel."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def add(self, kernel, flops):
        self.calls[kernel] = self.calls.get(kernel, 0) + 1
        super().add(kernel, flops)


def test_one_ds_solve_exchanges_once_per_iteration_and_counts_flops_once(monkeypatch, reduced):
    model = reduced.ocean
    solves = []
    solve = timestepper.preconditioned_cg

    def captured(*args, **kwargs):
        solves.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(timestepper, "preconditioned_cg", captured)
    model.step()
    (operator, rhs, _), kwargs = solves[0]
    halos = _count_calls(monkeypatch, cg, "exchange_halos")
    # wherever the butterfly is bound (the solver's module used to import it)
    butterflies = [
        _count_calls(monkeypatch, module, "butterfly_global_sum")
        for module in (globalsum, cg) if hasattr(module, "butterfly_global_sum")
    ]
    for maxiter in (kwargs["maxiter"], 3):
        for calls in [halos] + butterflies:
            calls.clear()
        flops = _CountingFlops()
        res = cg.preconditioned_cg(operator, rhs, flops, **{**kwargs, "maxiter": maxiter})
        ni = res.iterations
        assert ni == 3 if maxiter == 3 else ni > 3
        # one (p, r) stack per iteration, then the solution's refresh
        assert len(halos) == ni + 1
        assert sum(map(len, butterflies)) == 0
        # exact counts added once per solve, however many iterations
        assert (flops.calls["cg_dot"], flops.calls["cg_update"]) == (1, 1)
