"""repro.durable: the one atomic write and the one newest-good scan, the
fsync/replace budget of every durable operation, and the on-disk
formats of the parent commit.

The fixtures under ``tests/fixtures/durable`` were written by commit
e288b6d (the parent of the PR that introduced ``repro.durable``) from
``coupled_model(nx=8, ny=4, nz_atm=2, nz_ocn=2, px=2, py=1, dt=600.0)``
after ``run(1)``: the ocean's global archive, its rank-1 shard, and one
committed ``ckpt-w000001/`` whose manifest predates the shard checksum.
"""

import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.durable import (
    CheckpointError,
    CheckpointWarning,
    atomic_write,
    newest_good,
    write_json_atomic,
)
from repro.gcm.checkpoint import (
    load_checkpoint,
    load_state_shard,
    save_checkpoint,
    verify_checkpoint,
)
from repro.gcm.coupled import coupled_model
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.recover import CoordinatedCheckpointStore
from repro.service import JobSpec, Journal, ServiceClient
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor, SupervisorConfig
from repro.service.worker import PID_NAME

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "durable"


def siblings(path):
    return sorted(p.name for p in path.parent.iterdir() if p != path)


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"old")
        with atomic_write(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"  # not visible until the block ends
        assert path.read_bytes() == b"new"
        assert siblings(path) == []

    @pytest.mark.parametrize("existed", [True, False])
    def test_exception_leaves_destination_and_no_sibling(self, tmp_path, existed):
        path = tmp_path / "state.bin"
        if existed:
            path.write_bytes(b"precious")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path) as fh:
                fh.write(b"half a rec")
                raise RuntimeError("boom")
        assert path.exists() == existed
        if existed:
            assert path.read_bytes() == b"precious"
        assert siblings(path) == []

    def test_unserialisable_json_leaves_no_sibling(self, tmp_path):
        """The parent's JSON writer leaked ``result.json.tmp<pid>`` here."""
        path = tmp_path / "result.json"
        write_json_atomic(path, {"digest": "abc"})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json_atomic(path, {"digest": object()})
        assert path.read_bytes() == before
        assert siblings(path) == []

    def test_journal_rewrite_failure_leaves_no_sibling(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        journal.append({"op": "submit", "job_id": "a"})
        journal.close()
        before = journal.path.read_bytes()
        with pytest.raises(TypeError):
            journal.compact([{"op": object()}])
        assert journal.path.read_bytes() == before
        assert siblings(journal.path) == []

    def test_writers_in_two_processes_never_share_a_sibling(self, tmp_path, monkeypatch):
        """Interleaved writers of one path (pids faked) write through
        their own sibling; the last to finish wins whole."""
        path = tmp_path / "status.json"
        monkeypatch.setattr(os, "getpid", lambda: 111)
        first = atomic_write(path, "w")
        fh1 = first.__enter__()
        monkeypatch.setattr(os, "getpid", lambda: 222)
        second = atomic_write(path, "w")
        fh2 = second.__enter__()
        assert fh1.name != fh2.name
        fh1.write("from 111")
        fh2.write("from 222")
        second.__exit__(None, None, None)
        assert path.read_text() == "from 222"
        first.__exit__(None, None, None)
        assert path.read_text() == "from 111"
        assert siblings(path) == []


class TestNewestGood:
    @staticmethod
    def load(cand):
        if "torn" in cand.name:
            raise CheckpointError(f"{cand.name} is torn")
        return cand.name.upper()

    def test_first_loadable_wins_and_is_loaded_once(self):
        calls = []

        def load(cand):
            calls.append(cand.name)
            return self.load(cand)

        cands = [pathlib.Path("c"), pathlib.Path("b"), pathlib.Path("a")]
        assert newest_good(cands, load) == (pathlib.Path("c"), "C")
        assert calls == ["c"]

    def test_damage_warns_and_falls_back(self):
        cands = [pathlib.Path("torn-2"), pathlib.Path("torn-1"), pathlib.Path("ok")]
        with pytest.warns(CheckpointWarning, match="falling back") as caught:
            assert newest_good(cands, self.load) == (pathlib.Path("ok"), "OK")
        assert [str(w.message).split(":")[0] for w in caught] == [
            "skipping damaged checkpoint torn-2",
            "skipping damaged checkpoint torn-1",
        ]

    def test_nothing_verifies(self):
        with pytest.warns(CheckpointWarning):
            assert newest_good([pathlib.Path("torn")], self.load) is None
        assert newest_good([], self.load) is None

    def test_other_errors_are_not_swallowed(self):
        def load(cand):
            raise KeyError("a bug, not damage")

        with pytest.raises(KeyError):
            newest_good([pathlib.Path("x")], load)


@pytest.fixture
def calls(monkeypatch):
    """Counts of os.fsync / os.replace issued through repro.durable and
    the journal (the only two modules allowed to make a file durable)."""
    counts = {"fsync": 0, "replace": 0}
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        counts["fsync"] += 1
        return real_fsync(fd)

    def replace(src, dst):
        counts["replace"] += 1
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return counts


@pytest.fixture(scope="module")
def ocean():
    cm = coupled_model(nx=8, ny=4, nz_atm=2, nz_ocn=2, px=2, py=1, dt=600.0)
    cm.run(1)
    return cm.ocean


class TestSyncBudget:
    """Numbers recorded at the parent commit: a durable operation issues
    exactly these fsyncs and renames, no more (cost) and no fewer
    (durability)."""

    def test_global_save(self, ocean, tmp_path, calls):
        save_checkpoint(ocean, tmp_path / "ck")
        assert calls == {"fsync": 1, "replace": 1}

    def test_coordinated_checkpoint(self, ocean, tmp_path, calls):
        store = CoordinatedCheckpointStore(tmp_path)
        store.checkpoint({"ocn": ocean}, window=1)
        n = ocean.decomp.n_ranks
        assert calls == {"fsync": n + 1, "replace": n + 1}

    def test_journal_append_and_compact(self, tmp_path, calls):
        journal = Journal(tmp_path / "journal.bin").open()
        journal.append({"op": "submit", "job_id": "a"})
        assert calls == {"fsync": 1, "replace": 0}
        journal.compact([{"op": "submit", "job_id": "a"}])
        assert calls == {"fsync": 2, "replace": 1}
        journal.close()

    def test_spool_submit(self, tmp_path, calls):
        ServiceClient(tmp_path).submit(JobSpec(kind="sleep", name="one"))
        assert calls == {"fsync": 1, "replace": 1}

    def test_worker_spawn(self, tmp_path, calls):
        """The journal's start record plus the whole ``worker.pid`` (a
        service killed between creating and writing it left an empty
        file that the next incarnation's orphan sweep could not read)."""
        journal = Journal(tmp_path / "journal.bin").open()
        queue = JobQueue(journal)
        queue.submit(JobSpec(kind="sleep", name="one"))
        supervisor = Supervisor(
            queue, tmp_path / "jobs", SupervisorConfig(), ServiceMetrics()
        )
        calls.update(fsync=0, replace=0)
        handle = supervisor.spawn(queue.next_ready())
        try:
            assert calls == {"fsync": 2, "replace": 1}
            pid = (handle.job_dir / PID_NAME).read_text()
            assert pid == str(handle.process.pid)
        finally:
            supervisor.kill_all()
            journal.close()


class TestParentFormats:
    def test_global_archive_loads_bit_exactly(self, ocean):
        path = FIXTURES / "global_e288b6d.npz"
        assert verify_checkpoint(path) == {
            "version": 2, "time": 2400.0, "step_count": 4, "grid": (8, 4, 2),
        }
        fresh = coupled_model(nx=8, ny=4, nz_atm=2, nz_ocn=2, px=1, py=1, dt=600.0).ocean
        load_checkpoint(fresh, path)
        with np.load(path) as raw:
            for name in FIELDS_3D:
                assert fresh.state.to_global(name).tobytes() == raw["f3_" + name].tobytes()
            for name in FIELDS_2D:
                assert fresh.state.to_global(name).tobytes() == raw["f2_" + name].tobytes()
        # the same run, repeated here, is what the parent archived
        assert fresh.state.to_global("theta").tobytes() == ocean.state.to_global("theta").tobytes()
        assert (fresh.state.time, fresh.state.step_count) == (2400.0, 4)

    def test_shard_loads_bit_exactly(self):
        path = FIXTURES / "shard_rank1_e288b6d.npz"
        fresh = coupled_model(nx=8, ny=4, nz_atm=2, nz_ocn=2, px=2, py=1, dt=600.0).ocean
        meta = load_state_shard(fresh, 1, path)
        with np.load(path) as raw:
            assert meta["checksum"] == int(raw["checksum"])
            assert meta["step_count"] == 4
            for name in FIELDS_3D + FIELDS_2D:
                prefix = "f3_" if name in FIELDS_3D else "f2_"
                assert fresh.state[name][1].tobytes() == raw[prefix + name].tobytes()
            for name in ("taux", "tauy", "theta_surf"):
                assert fresh.coupling[name][1].tobytes() == raw["cpl_" + name].tobytes()

    def test_manifest_without_shard_checksums_is_malformed(self, tmp_path):
        """No version branch: a pre-checksum manifest is damage like any
        other missing key — warn, fall back (here: to nothing)."""
        root = tmp_path / "store"
        shutil.copytree(FIXTURES / "store_e288b6d", root)
        store = CoordinatedCheckpointStore(root)
        with pytest.raises(CheckpointError, match="torn or malformed.*checksum"):
            store._load_record(root / "ckpt-w000001")
        with pytest.warns(CheckpointWarning, match="falling back"):
            assert store.latest_good() is None

