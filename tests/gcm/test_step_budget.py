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

from repro.gcm import cg, operators, prognostic, timestepper
from repro.gcm.coupled import coupled_model
from repro.gcm.operators import FlopCounter
from repro.parallel import globalsum
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition

#: the reduced configuration of ``perf``'s ``gcm_reduced`` workload
REDUCED = dict(nx=64, ny=32, nz_atm=5, nz_ocn=8, px=4, py=4, coupling_interval=2)
TILES = REDUCED["px"] * REDUCED["py"]
#: tiles per kernel call: 16x8-column tiles whose windows (interior plus
#: two halo rings) are 20x12 columns fit BATCH_CELLS 8 at a time at 5
#: levels and 4 at a time at 8
BATCH = {"atmosphere": 8, "ocean": 4}


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


def test_the_step_batches_whole_windows_per_kernel_call(reduced):
    for component, size in BATCH.items():
        model = getattr(reduced, component)
        assert [(sl.start, sl.stop) for sl in model._batches] == [
            (start, start + size) for start in range(0, TILES, size)
        ]


@pytest.mark.parametrize("component", ["atmosphere", "ocean"])
def test_kernel_invocations_per_step_are_tiles_over_batch(monkeypatch, reduced, component):
    model = getattr(reduced, component)
    n_batches = len(model._batches)
    assert n_batches == TILES // BATCH[component]
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


class _CountingState(np.ndarray):
    """A state array that counts the window copies taken out of it and
    the assignments into it; arithmetic on it and its copies yields
    plain arrays, so kernel temporaries are not counted."""

    reads = writes = 0

    def copy(self, *args, **kwargs):
        type(self).reads += 1
        return super().copy(*args, **kwargs).view(np.ndarray)

    def __setitem__(self, index, value):
        type(self).writes += 1
        super().__setitem__(index, value)

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array.view(np.ndarray)


@pytest.mark.parametrize("component", ["atmosphere", "ocean"])
def test_each_batch_copies_its_windows_once(monkeypatch, reduced, component):
    """Per batch, the PS kernels copy out the four fields their stencils
    read (u, v, theta, tracer) and write back six (the four G terms, phy,
    w); the correction copies out ps and writes back u, v, the tracer and
    theta.  Everything else is read through window views."""
    model = getattr(reduced, component)
    stores = (model.state.fields3d, model.state.fields2d)
    copies = []
    for method in ("_provisional_batch", "_correct_batch"):

        def counted(sl, *args, _method=method, _original=getattr(model, method)):
            _CountingState.reads = _CountingState.writes = 0
            out = _original(sl, *args)
            copies.append((_method, _CountingState.reads, _CountingState.writes))
            return out

        monkeypatch.setattr(model, method, counted)
    # (the step swaps the G-term arrays between names: wrap and unwrap
    # whatever each name holds)
    for store in stores:
        store.update((name, a.view(_CountingState)) for name, a in store.items())
    try:
        model.step()
    finally:
        for store in stores:
            store.update((name, a.view(np.ndarray)) for name, a in store.items())
    n_batches = TILES // BATCH[component]
    assert copies == [("_provisional_batch", 4, 6)] * n_batches + [("_correct_batch", 1, 4)] * n_batches


@pytest.mark.parametrize("shape", [(8,), ()], ids=["3d", "2d"])
def test_a_stacked_exchange_is_six_copies(shape):
    decomp = Decomposition(64, 32, 4, 4, olx=3)
    tile = decomp.tiles[0]
    stack = np.zeros((decomp.n_ranks,) + shape + tile.shape2d).view(_CountingStack)
    for width in (1, 3):
        _CountingStack.copies = 0
        exchange_halos(decomp, stack, width)
        # slice copies on the tile grid: west and east each shift the
        # inner tiles and wrap the periodic edge, south and north only
        # shift (walls in y)
        assert _CountingStack.copies == 6


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
    # the solver's default exchange, or the model's hook
    halos = _count_calls(monkeypatch, cg, "exchange_halos")
    hooked = _count_calls(monkeypatch, timestepper, "exchange_halos")
    shifts = [_count_calls(monkeypatch, operators, name) for name in ("xm", "xp", "ym", "yp")]
    # wherever the butterfly is bound (the solver's module used to import it)
    butterflies = [
        _count_calls(monkeypatch, module, "butterfly_global_sum")
        for module in (globalsum, cg) if hasattr(module, "butterfly_global_sum")
    ]
    for maxiter in (kwargs["maxiter"], 3):
        for calls in [halos, hooked] + butterflies + shifts:
            calls.clear()
        flops = _CountingFlops()
        res = cg.preconditioned_cg(operator, rhs, flops, **{**kwargs, "maxiter": maxiter})
        halos.extend(hooked)
        ni = res.iterations
        assert ni == 3 if maxiter == 3 else ni > 3
        # the search direction per iteration, then the solution's
        # refresh: each one single-field stack of whole tiles
        assert len(halos) == ni + 1
        assert [np.shape(fields) for _, fields, *_ in halos] == [
            (len(rhs),) + rhs[0].shape
        ] * (ni + 1)
        assert sum(map(len, butterflies)) == 0
        # the interior apply reads flat offsets, not wrapped shifts
        assert sum(map(len, shifts)) == 0
        # exact counts added once per solve, however many iterations
        assert (flops.calls["cg_dot"], flops.calls["cg_update"]) == (1, 1)


def test_a_ds_solve_is_charged_two_exchanges_and_two_gsums_per_iteration(monkeypatch, reduced):
    """The host exchanges one field per iteration; the runtime still
    records the paper's two-field exchange and two global sums."""
    model = reduced.ocean
    stats = model.runtime.stats
    charged = []
    charge = model._charge_ds

    def counted(cg_res, counter):
        before = [(st.n_exchanges, st.n_gsums) for st in stats]
        charge(cg_res, counter)
        after = [(st.n_exchanges, st.n_gsums) for st in stats]
        charged.append((cg_res.iterations, before, after))

    monkeypatch.setattr(model, "_charge_ds", counted)
    model.step()
    ((ni, before, after),) = charged
    assert ni > 0
    for (ex0, gs0), (ex1, gs1) in zip(before, after):
        assert (ex1 - ex0, gs1 - gs0) == (2 * ni, 2 * ni)
