"""Coordinated checkpoint store: two-phase commit, CRC shards, restore."""

import json
import shutil

import numpy as np
import pytest

from repro.gcm.atmosphere import atmosphere_model
from repro.gcm.checkpoint import CheckpointError
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.recover import CoordinatedCheckpointStore
from repro.recover.checkpoint import MANIFEST_NAME


def small_model():
    return atmosphere_model(nx=8, ny=4, nz=2, px=2, py=1, dt=600.0)


def global_state(model):
    return {name: model.state.to_global(name) for name in FIELDS_3D + FIELDS_2D}


class TestCommitProtocol:
    def test_uncommitted_checkpoint_is_invisible(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        store.write_shards({"atm": small_model()}, window=0)
        assert store.latest_good() is None

    def test_commit_makes_checkpoint_restorable(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        record = store.write_shards({"atm": small_model()}, window=0)
        store.commit(record)
        got = store.latest_good()
        assert got is not None and got.window == 0 and got.committed
        assert got.total_nbytes() == record.total_nbytes() > 0

    def test_latest_good_skips_newer_uncommitted(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        store.commit(store.write_shards({"atm": model}, window=0))
        model.run(1)
        store.write_shards({"atm": model}, window=2)  # crash before commit
        assert store.latest_good().window == 0

    def test_corrupt_manifest_is_skipped(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        store.commit(store.write_shards({"atm": model}, window=0))
        rec2 = store.write_shards({"atm": model}, window=2)
        store.commit(rec2)
        (rec2.directory / MANIFEST_NAME).write_text("{not json")
        assert store.latest_good().window == 0

    def test_manifest_naming_missing_shard_is_skipped(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        rec = store.write_shards({"atm": small_model()}, window=0)
        store.commit(rec)
        (rec.directory / "atm_rank001.npz").unlink()
        assert store.latest_good() is None


class TestRestore:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        model.run(2)
        before = global_state(model)
        time, steps = model.state.time, model.state.step_count
        store.commit(store.write_shards({"atm": model}, window=1))

        model.run(3)  # evolve past the checkpoint...
        store.restore({"atm": model}, store.latest_good())  # ...and rewind
        after = global_state(model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        assert model.state.time == time
        assert model.state.step_count == steps

    def test_restored_run_replays_identically(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        model.run(2)
        store.commit(store.write_shards({"atm": model}, window=1))
        model.run(4)
        final = global_state(model)

        store.restore({"atm": model}, store.latest_good())
        model.run(4)
        replay = global_state(model)
        for name in final:
            np.testing.assert_array_equal(final[name], replay[name])

    def test_corrupted_shard_payload_raises(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        rec = store.write_shards({"atm": model}, window=0)
        store.commit(rec)
        shard = rec.directory / "atm_rank000.npz"
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        shard.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            store.restore({"atm": model}, store.latest_good())

    def test_shard_rolled_back_under_a_committed_manifest_raises(self, tmp_path):
        """The same rank's shard from an earlier window is a perfectly
        valid archive — only the manifest's recorded CRC tells it is not
        the one this checkpoint committed."""
        store = CoordinatedCheckpointStore(tmp_path)
        model = atmosphere_model(nx=8, ny=4, nz=2, px=1, py=1, dt=600.0)
        old = store.checkpoint({"atm": model}, window=1)
        model.run(2)
        new = store.checkpoint({"atm": model}, window=2)
        shutil.copy(old.directory / "atm_rank000.npz", new.directory / "atm_rank000.npz")
        latest = store.latest_good()
        assert latest.window == 2  # the manifest itself is intact
        with pytest.raises(CheckpointError, match="not the one its manifest names"):
            store.restore({"atm": model}, latest)

    def test_manifest_records_each_shards_checksum(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        rec = store.checkpoint({"atm": small_model()}, window=0)
        manifest = json.loads((rec.directory / MANIFEST_NAME).read_text())
        for name, entry in manifest["shards"].items():
            with np.load(rec.directory / name) as raw:
                assert entry["checksum"] == int(raw["checksum"])
            assert entry["nbytes"] == (rec.directory / name).stat().st_size

    def test_manifest_is_valid_json_with_all_shards(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        rec = store.write_shards({"atm": model}, window=3)
        store.commit(rec)
        manifest = json.loads((rec.directory / MANIFEST_NAME).read_text())
        assert manifest["window"] == 3
        assert sorted(manifest["shards"]) == [
            f"atm_rank{r:03d}.npz" for r in range(model.decomp.n_ranks)
        ]
