"""Advisory file lock on the shard store: contention, reentrancy,
and the locked write+commit path."""

import json
import threading
import time

import pytest

from repro.gcm.atmosphere import atmosphere_model
from repro.recover import (
    CheckpointLockTimeout,
    CoordinatedCheckpointStore,
    FileLock,
)
from repro.recover import checkpoint
from repro.recover.checkpoint import LOCK_NAME, MANIFEST_NAME


def small_model():
    return atmosphere_model(nx=8, ny=4, nz=2, px=2, py=1, dt=600.0)


class TestFileLock:
    def test_two_instances_conflict(self, tmp_path, monkeypatch):
        # flock conflicts apply across file descriptions even within one
        # process, so two instances model two checkpointing processes
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_S", 0.2)
        a = FileLock(tmp_path / "lk")
        b = FileLock(tmp_path / "lk")
        a.acquire()
        with pytest.raises(CheckpointLockTimeout, match="could not lock"):
            b.acquire()
        a.release()
        b.acquire()  # free again
        b.release()

    def test_reentrant_within_one_instance(self, tmp_path):
        lock = FileLock(tmp_path / "lk")
        with lock:
            with lock:  # write_shards inside checkpoint(): same holder
                assert lock.held
            assert lock.held
        assert not lock.held

    def test_contender_proceeds_after_release(self, tmp_path):
        lock = FileLock(tmp_path / "lk")
        other = FileLock(tmp_path / "lk")
        other.acquire()
        acquired_at = {}

        def contend():
            lock.acquire()
            acquired_at["t"] = time.monotonic()
            lock.release()

        thread = threading.Thread(target=contend)
        thread.start()
        time.sleep(0.15)
        released_at = time.monotonic()
        other.release()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert acquired_at["t"] >= released_at


class TestStoreLocking:
    def test_store_operations_create_and_release_lock(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        record = store.write_shards({"atm": small_model()}, window=0)
        store.commit(record)
        assert (tmp_path / LOCK_NAME).exists()
        assert not store.lock.held  # released after each operation

    def test_contended_commit_times_out_not_interleaves(self, tmp_path, monkeypatch):
        """A second checkpointer cannot slip a MANIFEST commit inside
        another process's write window — the contended path."""
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_S", 0.2)
        store_a = CoordinatedCheckpointStore(tmp_path)
        store_b = CoordinatedCheckpointStore(tmp_path)
        model = small_model()
        record = store_b.write_shards({"atm": model}, window=0)
        store_a.lock.acquire()  # "process A" holds the store
        try:
            with pytest.raises(CheckpointLockTimeout):
                store_b.commit(record)
            assert store_b.latest_good() is None  # nothing half-committed
        finally:
            store_a.lock.release()
        store_b.commit(record)  # lock free: commit lands
        assert store_b.latest_good().window == 0

    def test_checkpoint_spans_write_and_commit_under_one_hold(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        record = store.checkpoint({"atm": small_model()}, window=3)
        assert record.committed
        got = store.latest_good()
        assert got is not None and got.window == 3
        manifest = json.loads((got.directory / MANIFEST_NAME).read_text())
        assert manifest["window"] == 3

    def test_blocked_writer_waits_then_succeeds(self, tmp_path):
        store = CoordinatedCheckpointStore(tmp_path)
        holder = FileLock(tmp_path / LOCK_NAME)
        holder.acquire()
        done = {}

        def write():
            record = store.checkpoint({"atm": small_model()}, window=1)
            done["committed"] = record.committed

        thread = threading.Thread(target=write)
        thread.start()
        time.sleep(0.1)
        assert "committed" not in done  # parked on the lock
        holder.release()
        thread.join(timeout=30.0)
        assert done.get("committed") is True
