"""Durability of the checkpoint layer: atomic writes, self-verifying
archives, and resume-from-latest-good after corruption."""

import os

import numpy as np
import pytest

from repro.gcm.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointWarning,
    find_latest_good,
    load_checkpoint,
    resume_latest,
    save_checkpoint,
    verify_checkpoint,
)
from repro.gcm.ocean import ocean_model


@pytest.fixture
def model():
    m = ocean_model(nx=16, ny=8, nz=3, px=2, py=2, dt=600.0)
    m.run(2)
    return m


class TestAtomicity:
    def test_no_tmp_file_left_behind(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ck.npz")
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_overwrite_is_atomic(self, model, tmp_path):
        """Re-saving over an existing checkpoint replaces it whole; the
        archive at that name verifies at every point in time."""
        path = save_checkpoint(model, tmp_path / "ck.npz")
        model.run(1)
        save_checkpoint(model, path)
        meta = verify_checkpoint(path)
        assert meta["step_count"] == model.state.step_count


class TestVerification:
    def test_verify_returns_metadata(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ck.npz")
        meta = verify_checkpoint(path)
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["grid"] == (16, 8, 3)
        assert meta["step_count"] == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            verify_checkpoint(tmp_path / "nope.npz")

    def test_truncation_detected(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ck.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            verify_checkpoint(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError):
            verify_checkpoint(path)

    def test_payload_corruption_fails_checksum(self, model, tmp_path):
        """Rewrite one field with altered data but keep the stored
        checksum: the mismatch must be caught."""
        path = save_checkpoint(model, tmp_path / "ck.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["f3_theta"] = payload["f3_theta"] + 1e-9
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.raises(CheckpointError, match="checksum"):
            verify_checkpoint(path)

    def test_wrong_version_rejected(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ck.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["version"] = np.array(CHECKPOINT_VERSION + 1)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.raises(CheckpointError, match="version"):
            verify_checkpoint(path)

    def test_load_checks_grid_match(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ck.npz")
        other = ocean_model(nx=32, ny=8, nz=3, px=2, py=2, dt=600.0)
        with pytest.raises(CheckpointError, match="grid"):
            load_checkpoint(other, path)


class TestAutoResume:
    def test_latest_good_skips_corrupt(self, model, tmp_path):
        good = save_checkpoint(model, tmp_path / "a.npz")
        os.utime(good, (1_000_000, 1_000_000))
        model.run(1)
        newer = save_checkpoint(model, tmp_path / "b.npz")
        os.utime(newer, (2_000_000, 2_000_000))
        raw = newer.read_bytes()
        newer.write_bytes(raw[:100])  # newest is torn (killed mid-write)
        assert find_latest_good(tmp_path) == good

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda raw: raw[:100], id="torn-head"),
            pytest.param(lambda raw: raw[: len(raw) // 2], id="torn-half"),
            pytest.param(lambda raw: b"", id="empty"),
            pytest.param(lambda raw: b"not a zip archive", id="garbage"),
            pytest.param(
                lambda raw: raw[:200] + bytes([raw[200] ^ 0xFF]) + raw[201:],
                id="flipped-byte",
            ),
        ],
    )
    def test_torn_archive_warns_and_resumes_from_the_previous(
        self, model, tmp_path, damage
    ):
        good = save_checkpoint(model, tmp_path / "a.npz")
        os.utime(good, (1_000_000, 1_000_000))
        theta_then = model.state.to_global("theta").copy()
        model.run(1)
        newer = save_checkpoint(model, tmp_path / "b.npz")
        newer.write_bytes(damage(newer.read_bytes()))
        os.utime(newer, (2_000_000, 2_000_000))
        with pytest.warns(CheckpointWarning, match="skipping damaged checkpoint b.npz"):
            assert resume_latest(model, tmp_path) == good
        np.testing.assert_array_equal(model.state.to_global("theta"), theta_then)

    def test_resume_reads_the_archive_it_picked_once(self, model, tmp_path, monkeypatch):
        save_checkpoint(model, tmp_path / "ck.npz")
        loads = []
        real = np.load
        monkeypatch.setattr(np, "load", lambda *a, **k: loads.append(a) or real(*a, **k))
        assert resume_latest(model, tmp_path) is not None
        assert len(loads) == 1

    def test_resume_latest_restores_state(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "ck.npz")
        theta_then = model.state.to_global("theta").copy()
        model.run(3)
        fresh = ocean_model(nx=16, ny=8, nz=3, px=2, py=2, dt=600.0)
        path = resume_latest(fresh, tmp_path)
        assert path is not None
        np.testing.assert_array_equal(fresh.state.to_global("theta"), theta_then)
        assert fresh.state.step_count == 2

    def test_resume_empty_directory_returns_none(self, model, tmp_path):
        assert resume_latest(model, tmp_path) is None

    def test_resume_bit_exact_continuation(self, model, tmp_path):
        """A run split by save/restore matches an unbroken one exactly
        even when the archive took a round trip through verification."""
        save_checkpoint(model, tmp_path / "ck.npz")
        model.run(4)
        unbroken = model.state.to_global("theta")
        fresh = ocean_model(nx=16, ny=8, nz=3, px=2, py=2, dt=600.0)
        resume_latest(fresh, tmp_path)
        fresh.run(4)
        np.testing.assert_array_equal(fresh.state.to_global("theta"), unbroken)
