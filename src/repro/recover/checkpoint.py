"""Coordinated, sharded checkpoints of a distributed coupled run.

One coordinated checkpoint = one directory::

    ckpt-w000004/
        atm_rank000.npz ... atm_rank015.npz
        ocn_rank000.npz ... ocn_rank015.npz
        MANIFEST.json          <- written last; its presence = committed

Each shard is the hardened per-rank format of
:func:`repro.gcm.checkpoint.save_state_shard` (CRC-32 self-verifying).
The manifest names every shard with its checksum and byte size —
:meth:`~CoordinatedCheckpointStore.restore` refuses a shard that is not
the one recorded — and both are written through
:func:`repro.durable.atomic_write`, so a checkpoint is either
*committed* (manifest present, every shard verifies) or it does not
exist as far as recovery is concerned.  A crash mid-checkpoint leaves
an uncommitted directory that :meth:`latest_good` skips; the previous
committed checkpoint stays restorable.  This module's own business is
the lock, the two-phase commit and the consistent-cut check.

Because tiles are checkpointed at a coupling-window boundary (a global
synchronization point in the coupled run), the shard set is a
*consistent cut*: no message of the next window has been sent when the
shards are captured, so restoring all shards and replaying forward is
bit-exact.  The DES-time cost of writing/reading the shards and running
the commit barrier is charged by the
:class:`~repro.recover.manager.RecoveryManager`, not here — this module
is the durable on-disk half.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.durable import CheckpointError, newest_good, write_json_atomic
from repro.gcm.checkpoint import load_state_shard, save_state_shard

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1
LOCK_NAME = ".ckpt.lock"
#: Seconds a checkpointer waits for the shard-store lock before raising
#: :class:`CheckpointLockTimeout`.
LOCK_TIMEOUT_S = 10.0
LOCK_POLL_S = 0.01
#: Age past which the non-POSIX lockfile fallback breaks a dead holder's
#: lock.
LOCK_STALE_S = 60.0


class CheckpointLockTimeout(CheckpointError):
    """The shard-store advisory lock could not be acquired in time."""


class FileLock:
    """Advisory inter-process lock on one path (reentrant per instance).

    Two processes checkpointing the same run directory must not
    interleave shard writes with a MANIFEST commit.  ``flock`` is used
    where available (conflicts apply across *and within* a process,
    since each instance opens its own file description); platforms
    without ``fcntl`` fall back to an ``O_CREAT|O_EXCL`` lockfile with
    stale-lock breaking, which gives the same mutual exclusion for
    cooperating processes.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._fd: Optional[int] = None
        self._depth = 0

    def acquire(self) -> None:
        """Take the lock, polling up to ``LOCK_TIMEOUT_S``; raises
        :class:`CheckpointLockTimeout` if another holder keeps it."""
        if self._depth > 0:
            self._depth += 1
            return
        try:
            import fcntl
        except ImportError:
            fcntl = None
        deadline = time.monotonic() + LOCK_TIMEOUT_S
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        os.close(fd)
                        raise CheckpointLockTimeout(
                            f"could not lock {self.path} within "
                            f"{LOCK_TIMEOUT_S}s (another checkpointer holds it)"
                        ) from None
                    time.sleep(LOCK_POLL_S)
            self._fd = fd
        else:  # pragma: no cover - non-POSIX fallback
            while True:
                try:
                    fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.write(fd, str(os.getpid()).encode())
                    self._fd = fd
                    break
                except FileExistsError:
                    try:
                        if time.time() - self.path.stat().st_mtime > LOCK_STALE_S:
                            self.path.unlink()
                            continue
                    except OSError:
                        pass
                    if time.monotonic() > deadline:
                        raise CheckpointLockTimeout(
                            f"could not lock {self.path} within {LOCK_TIMEOUT_S}s"
                        ) from None
                    time.sleep(LOCK_POLL_S)
        self._depth = 1

    def release(self) -> None:
        """Drop one level of the (reentrant) hold; the outermost release
        unlocks the file."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                import fcntl

                fcntl.flock(fd, fcntl.LOCK_UN)
            except ImportError:  # pragma: no cover - O_EXCL fallback
                try:
                    self.path.unlink()
                except OSError:
                    pass
            os.close(fd)

    @property
    def held(self) -> bool:
        return self._depth > 0

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class CheckpointRecord:
    """One coordinated checkpoint (committed once ``manifest`` exists)."""

    window: int
    directory: pathlib.Path
    #: shard filename -> {"nbytes": int, "checksum": int}
    shards: Dict[str, dict] = field(default_factory=dict)
    committed: bool = False

    def rank_nbytes(self, component: str, rank: int) -> int:
        """On-disk bytes of one rank's shard (for DES disk costing)."""
        return int(self.shards[_shard_name(component, rank)]["nbytes"])

    def total_nbytes(self) -> int:
        """Total on-disk bytes across every shard of this checkpoint."""
        return sum(int(s["nbytes"]) for s in self.shards.values())


def _shard_name(component: str, rank: int) -> str:
    return f"{component}_rank{rank:03d}.npz"


class CoordinatedCheckpointStore:
    """Directory of coordinated checkpoints with two-phase commit.

    The store separates *writing* (python-side durability) from
    *committing* (the manifest append), mirroring the distributed
    protocol the DES prices: ranks first write their shards, then a
    commit barrier confirms every rank finished, then the coordinator
    publishes the manifest.  If the run dies between write and commit,
    the checkpoint never becomes visible.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: advisory inter-process lock: two processes checkpointing the
        #: same run directory cannot interleave shard writes with a
        #: manifest commit (the lock is reentrant, so one holder may
        #: span write_shards + commit via :meth:`checkpoint`).
        self.lock = FileLock(self.directory / LOCK_NAME)

    # -- write side ------------------------------------------------------

    def write_shards(self, models: Dict[str, object], window: int) -> CheckpointRecord:
        """Write every rank's shard for every component; no commit yet.

        ``models`` maps component name (e.g. ``"atm"``) to a model whose
        state is at the window boundary.  Re-writing an uncommitted (or
        even committed) window simply overwrites its shards.
        """
        with self.lock:
            ckpt_dir = self.directory / f"ckpt-w{window:06d}"
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            stale = ckpt_dir / MANIFEST_NAME
            if stale.exists():
                stale.unlink()  # re-writing: invalidate until re-committed
            record = CheckpointRecord(window=window, directory=ckpt_dir)
            for comp, model in sorted(models.items()):
                for rank in range(model.decomp.n_ranks):
                    name = _shard_name(comp, rank)
                    _, nbytes, checksum = save_state_shard(model, rank, ckpt_dir / name)
                    record.shards[name] = {"nbytes": nbytes, "checksum": checksum}
            return record

    def commit(self, record: CheckpointRecord) -> pathlib.Path:
        """Publish the manifest; the checkpoint becomes restorable."""
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "window": record.window,
            "shards": record.shards,
        }
        path = record.directory / MANIFEST_NAME
        with self.lock:
            write_json_atomic(path, manifest)
        record.committed = True
        return path

    def checkpoint(
        self, models: Dict[str, object], window: int
    ) -> CheckpointRecord:
        """Write and commit one coordinated checkpoint under a single
        lock hold, so no other checkpointer can interleave."""
        with self.lock:
            record = self.write_shards(models, window)
            self.commit(record)
        return record

    # -- read side -------------------------------------------------------

    def _load_record(self, ckpt_dir: pathlib.Path) -> CheckpointRecord:
        path = ckpt_dir / MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(f"{ckpt_dir} has no manifest (uncommitted)")
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"manifest {path} unreadable: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CheckpointError(f"manifest {path} is not a JSON object")
        if manifest.get("manifest_version") != MANIFEST_VERSION:
            raise CheckpointError(
                f"manifest {path} has unsupported version "
                f"{manifest.get('manifest_version')}"
            )
        try:
            record = CheckpointRecord(
                window=int(manifest["window"]),
                directory=ckpt_dir,
                shards={
                    name: {"nbytes": int(e["nbytes"]), "checksum": int(e["checksum"])}
                    for name, e in manifest["shards"].items()
                },
                committed=True,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a torn/partial manifest from a dead writer may be valid
            # JSON and still miss (or mangle) required keys
            raise CheckpointError(
                f"manifest {path} is torn or malformed: {exc!r}"
            ) from exc
        for name in record.shards:
            if not (ckpt_dir / name).exists():
                raise CheckpointError(f"manifest {path} names missing shard {name}")
        return record

    def latest_good(self) -> Optional[CheckpointRecord]:
        """The newest *committed* checkpoint whose manifest verifies.

        Uncommitted directories (crash mid-checkpoint) are skipped
        silently; a directory whose manifest *exists* but is torn,
        malformed or incomplete (a dead writer's droppings) is skipped
        **with a warning** and the previous complete checkpoint is used
        instead — recovery never raises over damage it can route
        around.  Shard payloads re-verify their CRCs at
        :meth:`restore` time.
        """
        committed = (
            d
            for d in sorted(self.directory.glob("ckpt-w*"), reverse=True)
            if (d / MANIFEST_NAME).exists()
        )
        found = newest_good(committed, self._load_record)
        return None if found is None else found[1]

    def restore(self, models: Dict[str, object], record: CheckpointRecord) -> dict:
        """Load every shard of ``record`` back into ``models``.

        Every shard re-verifies its CRC on load and must carry the
        CRC the manifest recorded for it; the shards' step bookkeeping
        must agree across ranks (it was written at one window boundary)
        and is applied to each model once.  Returns
        ``{component: metadata}``.
        """
        out: dict = {}
        for comp, model in sorted(models.items()):
            metas = []
            for rank in range(model.decomp.n_ranks):
                name = _shard_name(comp, rank)
                if name not in record.shards:
                    raise CheckpointError(
                        f"checkpoint w{record.window} lacks shard {name}"
                    )
                meta = load_state_shard(model, rank, record.directory / name)
                if meta["checksum"] != record.shards[name]["checksum"]:
                    raise CheckpointError(
                        f"checkpoint w{record.window}: shard {name} is not the "
                        f"one its manifest names (CRC {meta['checksum']:#010x}, "
                        f"recorded {record.shards[name]['checksum']:#010x})"
                    )
                metas.append(meta)
            first = metas[0]
            for rank, meta in enumerate(metas):
                if (
                    meta["time"] != first["time"]
                    or meta["step_count"] != first["step_count"]
                ):
                    raise CheckpointError(
                        f"checkpoint w{record.window}: shard {comp}:{rank} "
                        f"bookkeeping disagrees — not a consistent cut"
                    )
            model.state.time = first["time"]
            model.state.step_count = first["step_count"]
            model._first_step = first["first_step"]
            out[comp] = first
        return out
