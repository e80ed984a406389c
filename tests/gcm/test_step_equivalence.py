"""The batched step is bit-exact against the per-tile oracle.

``tests/gcm/_reference_step.py`` keeps the per-tile ``Model.step`` (and
every kernel, halo plan and pricing loop it called) that the library
used to carry.  Each case here builds the same configuration twice,
advances one copy through the oracle and the other through
``Model.step``, and requires the interior of every prognostic and
diagnostic array, every ``StepStats`` field, the virtual clock and the
runtime's summary to be bitwise equal — for every tile-batch size the
step may derive.

Halos are not compared: the oracle overcomputes whole tiles, while the
step computes only each tile's window (the interior plus
``timestepper.STENCIL_RING`` rings) and leaves every other halo cell as
the exchange or the previous step left it.  The window tests below
check the ring from both sides: with every state cell outside the
window NaN before each step the step still matches the oracle, and with
one ring fewer it does not.
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

from repro.faults import (
    BandwidthEvent,
    DegradationSchedule,
    FaultPlan,
    JitterEvent,
    SlowdownEvent,
)
from repro.gcm import timestepper
from repro.gcm.atmosphere import atmosphere_config, atmosphere_model
from repro.gcm.coupled import CoupledModel, CouplerParams
from repro.gcm.ocean import ocean_config, ocean_model
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.gcm.timestepper import Model
from repro.gcm.topography import midlatitude_ridge
from repro.precision import PrecisionConfig

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _reference_step import reference_step  # noqa: E402

NX, NY, NZ = 32, 16, 3
STEPS = 6
TILINGS = [(1, 1), (2, 2), (4, 2), (4, 4), (8, 4)]
COMPONENTS = ["atmosphere", "ocean", "coupled"]
VARIANTS = ["centered", "upwind", "ah4", "nonhydrostatic"]
#: the three presets, and the mixed assignment the tuner ships (float32
#: everywhere but theta's storage: state, grid and solver dtypes differ)
PRECISIONS = {
    "all64": "all64",
    "wire32": "wire32",
    "all32": "all32",
    "theta64": PrecisionConfig.preset("all32").with_cells(
        [("theta", "state")], "float64", name="theta64"
    ),
}
#: float32 tracers under a float64 grid: buoyancy and the hydrostatic
#: pressure are narrower than the layer spacing they are integrated over
PRECISIONS_4X4_ONLY = {
    "tracers32": PrecisionConfig.preset("all64").with_cells(
        [("theta", "state"), ("tracer", "state")], "float32", name="tracers32"
    ),
}


def _overrides(base_config, variant, precision):
    """Config overrides of one (variant, precision) cell on top of an
    isomorph's own default dynamics."""
    kw = dict(precision={**PRECISIONS, **PRECISIONS_4X4_ONLY}[precision], cg_tol=1e-5)
    if variant == "upwind":
        kw["dynamics"] = dataclasses.replace(
            base_config.dynamics, advection_scheme="upwind"
        )
    elif variant == "ah4":
        kw["dynamics"] = dataclasses.replace(base_config.dynamics, ah4=1e14)
    elif variant == "nonhydrostatic":
        kw["nonhydrostatic"] = True
    return kw


def _build(component, px, py, variant, precision):
    """A list of the freshly built isomorphs plus the callable that
    advances them ``STEPS`` steps."""
    shape = dict(nx=NX, ny=NY, nz=NZ, px=px, py=py, dt=600.0)
    # a ridge whose crest falls inside a layer: shaved (fractional) cells
    depth = midlatitude_ridge(NX, NY, ridge_height=2900.0)
    atm = ocn = None
    if component in ("atmosphere", "coupled"):
        atm = atmosphere_model(
            **shape, **_overrides(atmosphere_config(), variant, precision)
        )
    if component in ("ocean", "coupled"):
        ocn = ocean_model(
            depth=depth, **shape, **_overrides(ocean_config(), variant, precision)
        )
    # A statically unstable patch (cold over warm) in a few tiles only,
    # deep enough that its columns need several adjustment sweeps while
    # the other tiles of their batch are already stable.  Not in the
    # non-hydrostatic runs: their float32 3-D solve does not survive
    # the convective burst, and a NaN state compares equal to anything.
    if variant != "nonhydrostatic":
        for model, level, sign in ((atm, NZ - 1, +1.0), (ocn, 0, -1.0)):
            if model is not None:
                theta = model.state.to_global("theta")
                theta[level, 2:7, 3:14] += sign * 40.0
                model.state.set_from_global("theta", theta)
    if component == "coupled":
        cm = CoupledModel(atm, ocn, CouplerParams(coupling_interval=STEPS // 2))
        return [atm, ocn], lambda: cm.run(2)
    model = atm or ocn
    return [model], lambda: model.run(STEPS)


def _snapshot(models):
    out = []
    for m in models:
        arrays = {name: m.state.to_global(name) for name in FIELDS_3D + FIELDS_2D}
        stats = [dataclasses.astuple(h) for h in m.history]
        out.append((arrays, stats, m.runtime.elapsed, m.runtime.summary()))
    return out


def _batch_sizes(n_tiles):
    return [b for b in range(1, n_tiles + 1) if n_tiles % b == 0]


# Non-hydrostatic runs never refresh w's outer halo rings, so those cells
# hold wrapped-stencil garbage that overflows float32 (interiors stay
# exact).
@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("precision", list(PRECISIONS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("component", COMPONENTS)
@pytest.mark.parametrize("px,py", TILINGS)
def test_step_matches_the_per_tile_oracle(monkeypatch, px, py, component, variant, precision):
    _check_against_oracle(monkeypatch, px, py, component, variant, precision)


@pytest.mark.parametrize("precision", list(PRECISIONS_4X4_ONLY))
@pytest.mark.parametrize("variant", VARIANTS[:2])
@pytest.mark.parametrize("component", COMPONENTS)
def test_more_mixed_precision_on_the_benchmark_tiling(monkeypatch, component, variant, precision):
    _check_against_oracle(monkeypatch, 4, 4, component, variant, precision)


def _oracle(monkeypatch, px, py, component, variant, precision):
    """The oracle's snapshot of one case, and its models."""
    with monkeypatch.context() as patch:
        patch.setattr(Model, "step", reference_step)
        models, advance = _build(component, px, py, variant, precision)
        advance()
    return _snapshot(models), models


def _assert_matches(oracle, models, label):
    for (ref_arrays, ref_stats, ref_elapsed, ref_summary), got in zip(
        oracle, _snapshot(models)
    ):
        arrays, stats, elapsed, summary = got
        for name, ref in ref_arrays.items():
            assert arrays[name].dtype == ref.dtype, (name, label)
            np.testing.assert_array_equal(
                arrays[name], ref, err_msg=f"{name} (interior), {label}"
            )
        assert stats == ref_stats, f"StepStats, {label}"
        assert elapsed == ref_elapsed, f"runtime.elapsed, {label}"
        assert summary == ref_summary, f"runtime.summary(), {label}"


def _check_against_oracle(monkeypatch, px, py, component, variant, precision):
    oracle, models = _oracle(monkeypatch, px, py, component, variant, precision)
    assert all(len(stats) == STEPS for _, stats, _, _ in oracle)
    for model in models:  # interiors stay finite: the comparison means something
        assert all(np.isfinite(model.state.to_global(n)).all() for n in FIELDS_3D + FIELDS_2D)
    if variant != "nonhydrostatic":
        assert all(stats[0][5] > 0 for _, stats, _, _ in oracle)  # mixed_cells, step 1

    cells_per_tile = max(m.grid.hfac_c[0].size for m in models)
    for batch in _batch_sizes(px * py):
        # the step derives its batch from this constant: pin it so the
        # largest admissible batch is exactly `batch` tiles
        monkeypatch.setattr(
            timestepper, "BATCH_CELLS", batch * cells_per_tile, raising=False
        )
        models, advance = _build(component, px, py, variant, precision)
        advance()
        _assert_matches(oracle, models, f"B={batch}")


def _check_window(monkeypatch, variant, precision):
    """The coupled case on 4x2 tiles, its state set to NaN outside every
    tile's window before each step, against the oracle."""
    oracle, _ = _oracle(monkeypatch, 4, 2, "coupled", variant, precision)
    step = Model.step

    def step_after_nan_fill(model):
        for name in FIELDS_3D + FIELDS_2D:
            field = model.state[name]
            window = field[model.window].copy()
            field[...] = np.nan
            field[model.window] = window
        return step(model)

    with monkeypatch.context() as patch:
        patch.setattr(Model, "step", step_after_nan_fill)
        models, advance = _build("coupled", 4, 2, variant, precision)
        advance()
    _assert_matches(oracle, models, "NaN outside the windows")


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("precision", list(PRECISIONS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_window_the_step_reads_no_cell_outside_its_window(monkeypatch, variant, precision):
    _check_window(monkeypatch, variant, precision)


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_window_of_one_ring_is_too_narrow(monkeypatch, variant):
    monkeypatch.setattr(timestepper, "STENCIL_RING", 1)
    with pytest.raises(AssertionError, match="interior"):
        _check_window(monkeypatch, variant, "all64")


def test_mixed_pairs_count_each_column_once():
    """Step 1 of the unstable-patch cases mixes the same columns on any
    tiling, so it counts the same pairs: halo copies are not counted."""
    for component in ("atmosphere", "ocean"):
        counts = {
            (px, py): _build(component, px, py, "centered", "all64")[0][0].step().mixed_cells
            for px, py in [(1, 1), (2, 2), (4, 2), (4, 4)]
        }
        assert len(set(counts.values())) == 1 and counts[1, 1] > 0, (component, counts)


@pytest.mark.parametrize("backend", ["analytic", "des"])
def test_degraded_machine_is_priced_like_the_oracle(monkeypatch, backend):
    """A slow node, a throttled link and a jittery NIC: every exchange
    quote now depends on the rank's node and clock, so the per-rank,
    per-field pricing loop of the oracle is the reference."""
    plan = FaultPlan(
        slowdowns=(SlowdownEvent(node=1, start=0.0, duration=1e9, factor=2.5),),
        degradations=(BandwidthEvent(link="niu2^", start=0.0, duration=1e9, factor=0.25,
                                  extra_latency=2e-6),),
        jitters=(JitterEvent(node=3, start=0.0, duration=1e9, amp=4e-6),),
    )

    def run():
        m = ocean_model(nx=NX, ny=NY, nz=NZ, px=4, py=2, dt=600.0, backend=backend)
        m.runtime.set_degradation(DegradationSchedule(plan))
        m.run(4)
        return _snapshot([m])[0]

    with monkeypatch.context() as patch:
        patch.setattr(Model, "step", reference_step)
        ref_arrays, ref_stats, ref_elapsed, ref_summary = run()
    arrays, stats, elapsed, summary = run()
    assert ref_elapsed > 0 and (stats, elapsed, summary) == (ref_stats, ref_elapsed, ref_summary)
    for name, ref in ref_arrays.items():
        np.testing.assert_array_equal(arrays[name], ref, err_msg=name)
