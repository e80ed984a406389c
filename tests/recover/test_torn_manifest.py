"""Torn/partial MANIFEST hardening: warn and fall back, never raise."""

import json

import pytest

from repro.gcm.atmosphere import atmosphere_model
from repro.gcm.checkpoint import CheckpointError, CheckpointWarning
from repro.recover import CoordinatedCheckpointStore
from repro.recover.checkpoint import MANIFEST_NAME


def small_model():
    return atmosphere_model(nx=8, ny=4, nz=2, px=2, py=1, dt=600.0)


@pytest.fixture
def store_with_good_w0(tmp_path):
    store = CoordinatedCheckpointStore(tmp_path)
    store.checkpoint({"atm": small_model()}, window=0)
    return store


def damage_newer_manifest(store, text):
    """A newer checkpoint whose manifest a dead writer left damaged."""
    record = store.write_shards({"atm": small_model()}, window=2)
    (record.directory / MANIFEST_NAME).write_text(text)
    return record


TORN_MANIFESTS = [
    pytest.param('{"manifest_version": 1, "window": 2', id="truncated-json"),
    pytest.param('{"manifest_version": 1, "window": 2}', id="missing-shards"),
    pytest.param(
        '{"manifest_version": 1, "window": null, "shards": {}}',
        id="null-window",
    ),
    pytest.param('"just a string"', id="not-an-object"),
    pytest.param(
        '{"manifest_version": 1, "window": 2, "shards": '
        '{"atm_rank000.npz": {"nbytes": 1}, "atm_rank001.npz": {"nbytes": 1}}}',
        id="shard-without-checksum",
    ),
    pytest.param("", id="empty-file"),
]


@pytest.mark.parametrize("text", TORN_MANIFESTS)
def test_latest_good_warns_and_falls_back(store_with_good_w0, text):
    store = store_with_good_w0
    damage_newer_manifest(store, text)
    with pytest.warns(CheckpointWarning, match="falling back"):
        got = store.latest_good()
    assert got is not None and got.window == 0


@pytest.mark.parametrize("text", TORN_MANIFESTS)
def test_load_record_raises_structured_error(tmp_path, text):
    store = CoordinatedCheckpointStore(tmp_path)
    record = damage_newer_manifest(store, text)
    with pytest.raises(CheckpointError):
        store._load_record(record.directory)


def test_torn_manifest_with_no_predecessor_yields_none(tmp_path):
    store = CoordinatedCheckpointStore(tmp_path)
    damage_newer_manifest(store, '{"manifest_version": 1}')
    with pytest.warns(CheckpointWarning):
        assert store.latest_good() is None


def test_uncommitted_dirs_still_skip_silently(store_with_good_w0, recwarn):
    store = store_with_good_w0
    store.write_shards({"atm": small_model()}, window=2)  # no manifest
    assert store.latest_good().window == 0
    assert not [w for w in recwarn if issubclass(w.category, CheckpointWarning)]


def test_restore_after_fallback_is_usable(tmp_path):
    store = CoordinatedCheckpointStore(tmp_path)
    model = small_model()
    model.run(2)
    store.checkpoint({"atm": model}, window=1)
    expected_step = model.state.step_count
    damage_newer_manifest(store, '{"manifest_version": 1, "window": 3}')

    model.run(2)  # diverge past the checkpoint
    with pytest.warns(CheckpointWarning):
        record = store.latest_good()
    store.restore({"atm": model}, record)
    assert model.state.step_count == expected_step


def test_version_skew_also_falls_back(store_with_good_w0):
    store = store_with_good_w0
    damage_newer_manifest(
        store, json.dumps({"manifest_version": 99, "window": 2, "shards": {}})
    )
    with pytest.warns(CheckpointWarning, match="unsupported version"):
        assert store.latest_good().window == 0
