"""Checkpoint round trips as a property.

A model saved after any few steps, at any precision preset or the
mixed ``theta64`` config, on either tiling, through any store — the
global archive, one shard per rank, or the coordinated store's shards
committed and restored through its manifest — and restored into a
freshly built model continues exactly as the run that was never
interrupted: the same state digest and the same ``StepStats``.  Shards
keep tiles with their halos, including cells the step no longer
computes, so this also guards what the step leaves there.
"""

import dataclasses
import functools
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcm.checkpoint import (
    load_checkpoint,
    load_state_shard,
    save_checkpoint,
    save_state_shard,
)
from repro.gcm.ocean import ocean_model
from repro.gcm.state import FIELDS_2D, FIELDS_3D, model_digest
from repro.gcm.topography import midlatitude_ridge
from repro.precision import PrecisionConfig
from repro.recover import CoordinatedCheckpointStore

NX, NY, NZ = 32, 16, 3
MAX_SAVE_AT, RESUMED = 4, 2
#: virtual-time phase durations: differences of the runtime clock, which
#: a restored model restarts from zero, so equal to rounding only
CLOCK_FIELDS = {"t_ps_exch", "t_ps_compute", "t_ds", "t_step", "t_nh"}
#: float32 everywhere but theta's storage, as in the step equivalence test
MIXED = {
    "theta64": PrecisionConfig.preset("all32").with_cells(
        [("theta", "state")], "float64", name="theta64"
    ),
}


def _model(precision, tiling):
    px, py = tiling
    depth = midlatitude_ridge(NX, NY, ridge_height=2900.0)
    return ocean_model(
        nx=NX, ny=NY, nz=NZ, px=px, py=py, dt=600.0, depth=depth,
        precision=MIXED.get(precision, precision),
    )


@functools.lru_cache(maxsize=None)
def _uninterrupted(precision, tiling):
    """Digest after every step of one run, and its ``StepStats``."""
    model = _model(precision, tiling)
    digests, stats = [], []
    for _ in range(MAX_SAVE_AT + RESUMED):
        stats.append(model.step())
        digests.append(model_digest(model))
    return digests, stats


def _restore_from_shards(model, fresh, directory):
    for rank in range(model.decomp.n_ranks):
        save_state_shard(model, rank, directory / f"rank{rank:03d}.npz")
    metas = [
        load_state_shard(fresh, rank, directory / f"rank{rank:03d}.npz")
        for rank in range(fresh.decomp.n_ranks)
    ]
    fresh.state.time = metas[0]["time"]
    fresh.state.step_count = metas[0]["step_count"]
    fresh._first_step = metas[0]["first_step"]


def _restore_through_manifest(model, fresh, directory):
    store = CoordinatedCheckpointStore(directory)
    store.checkpoint({"ocn": model}, window=model.state.step_count)
    store.restore({"ocn": fresh}, store.latest_good())


@settings(max_examples=40, deadline=None)
@given(
    save_at=st.integers(1, MAX_SAVE_AT),
    precision=st.sampled_from(["all64", "wire32", "all32", "theta64"]),
    tiling=st.sampled_from([(2, 2), (4, 2)]),
    store=st.sampled_from(["archive", "shards", "coordinated"]),
)
def test_a_restored_model_continues_as_the_uninterrupted_run(save_at, precision, tiling, store):
    digests, stats = _uninterrupted(precision, tiling)
    model = _model(precision, tiling)
    model.run(save_at)
    assert model_digest(model) == digests[save_at - 1]
    fresh = _model(precision, tiling)
    with tempfile.TemporaryDirectory() as tmp:
        if store == "archive":
            load_checkpoint(fresh, save_checkpoint(model, pathlib.Path(tmp) / "ckpt"))
        elif store == "shards":
            _restore_from_shards(model, fresh, pathlib.Path(tmp))
        else:
            _restore_through_manifest(model, fresh, pathlib.Path(tmp))
    resumed = fresh.run(RESUMED)
    assert model_digest(fresh) == digests[save_at + RESUMED - 1]
    for got, want in zip(resumed, stats[save_at:]):
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name in CLOCK_FIELDS:
                assert abs(a - b) <= 1e-12 * abs(b), f.name
            else:
                assert a == b, f.name


def test_a_shard_is_priced_by_its_arrays_bytes_not_by_how_they_compress():
    """The DES disk phase prices the raw bytes a shard holds: noise in
    the halo cells compresses worse than zeros but costs the same."""
    model = _model("all64", (2, 2))
    model.run(1)
    with tempfile.TemporaryDirectory() as tmp:
        path, priced, _ = save_state_shard(model, 0, pathlib.Path(tmp) / "clean")
        with np.load(path) as data:
            assert priced == sum(data[key].nbytes for key in data.files)
        rng = np.random.default_rng(0)
        interior = (Ellipsis,) + model.decomp.tiles[0].interior
        for name in FIELDS_3D + FIELDS_2D:
            tile = model.state[name][0]
            noisy = rng.standard_normal(tile.shape).astype(tile.dtype)
            noisy[interior] = tile[interior]
            tile[...] = noisy
        _, priced_noisy, _ = save_state_shard(model, 0, pathlib.Path(tmp) / "noisy")
    assert priced_noisy == priced
