"""Checkpoint/restart for model integrations.

A numerical experiment "may entail many millions of time-steps"
(Fig. 6 caption) — production runs checkpoint and restart.  The restart
contract here is **bit-exact**: an integration split by a
save/load round trip produces exactly the same state as an unbroken
one, because every array the stepping scheme consults (prognostic
fields, both Adams-Bashforth G-term time levels, the surface pressure)
plus the step bookkeeping is captured.

Checkpoints are portable ``.npz`` archives of *global* fields, so a run
may be restarted on a different decomposition.

Durability contract (a century-scale run must survive a killed
process):

* **Atomic writes** — the archive is written to a ``*.tmp`` sibling,
  fsynced, and moved into place with :func:`os.replace`, so a crash
  mid-save can never destroy the previous good checkpoint.
* **Self-verifying archives** — every checkpoint embeds a CRC-32 over
  all payload arrays; truncation, corruption or a wrong
  ``CHECKPOINT_VERSION`` raises :class:`CheckpointError` (never a raw
  numpy/zipfile exception).
* **Auto-resume** — :func:`find_latest_good` scans a directory for the
  newest checkpoint that still verifies, and :func:`resume_latest`
  restores a model from it.
"""

from __future__ import annotations

import os
import pathlib
import warnings
import zipfile
import zlib
from typing import Optional, Union

import numpy as np

from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.gcm.timestepper import Model

#: Format marker for forward compatibility.
CHECKPOINT_VERSION = 2

#: Scalar bookkeeping entries every archive must carry.
_REQUIRED_KEYS = ("version", "time", "step_count", "first_step", "nx", "ny", "nz")


class CheckpointError(ValueError):
    """A checkpoint could not be written or restored: wrong version,
    truncated/corrupt archive, checksum mismatch, or missing fields."""


class CheckpointWarning(UserWarning):
    """A damaged checkpoint was skipped during auto-resume; recovery
    fell back to the previous complete one instead of raising."""


def _payload_checksum(payload: dict) -> int:
    """CRC-32 over every payload array, in key order (dtype+shape+bytes)."""
    crc = 0
    for key in sorted(payload):
        if key == "checksum":
            continue
        arr = np.ascontiguousarray(np.asarray(payload[key]))
        crc = zlib.crc32(key.encode(), crc)
        crc = zlib.crc32(str(arr.dtype).encode(), crc)
        crc = zlib.crc32(str(arr.shape).encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc & 0xFFFFFFFF


def _norm_path(path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return path


def _write_archive(path: pathlib.Path, payload: dict) -> None:
    """Checksum ``payload`` and write it atomically and durably: tmp
    sibling, fsync, :func:`os.replace`; a crash mid-write leaves at most
    a stale ``*.tmp`` behind and never damages the previous archive."""
    payload["checksum"] = np.array(_payload_checksum(payload), dtype=np.uint32)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # np.savez_compressed appends ".npz" to string paths, so hand it
        # an open file object to keep the exact tmp name
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_checkpoint(model: Model, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Atomically write the model's complete restart state to ``path``.

    The archive lands under its final name only after it is fully
    written and fsynced; a crash mid-save leaves at most a stale
    ``*.tmp`` file behind.
    """
    path = _norm_path(path)
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "time": np.array(model.state.time),
        "step_count": np.array(model.state.step_count),
        "first_step": np.array(model._first_step),
        "nx": np.array(model.config.grid.nx),
        "ny": np.array(model.config.grid.ny),
        "nz": np.array(model.config.grid.nz),
    }
    for name in FIELDS_3D:
        payload["f3_" + name] = model.state.to_global(name)
    for name in FIELDS_2D:
        payload["f2_" + name] = model.state.to_global(name)
    _write_archive(path, payload)
    return path


def _open_verified(
    path: pathlib.Path,
    required: tuple = _REQUIRED_KEYS,
    version_key: str = "version",
    version: int = CHECKPOINT_VERSION,
    what: str = "checkpoint",
) -> dict:
    """Load and integrity-check an archive; returns the payload dict.

    ``what`` names the archive flavour ("checkpoint" / "shard") in the
    :class:`CheckpointError` raised on any defect.
    """
    if not path.exists():
        raise CheckpointError(f"{what} {path} does not exist")
    try:
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as exc:
        raise CheckpointError(
            f"{what} {path} is corrupt or truncated: {exc}"
        ) from exc
    missing = [k for k in required if k not in payload]
    if missing:
        raise CheckpointError(
            f"{what} {path} is incomplete: missing entries {missing}"
        )
    found = int(payload[version_key])
    if found != version:
        raise CheckpointError(
            f"{what} {path} has unsupported version {found} "
            f"(expected {version})"
        )
    if "checksum" not in payload:
        raise CheckpointError(f"{what} {path} carries no checksum")
    stored = int(payload["checksum"])
    actual = _payload_checksum(payload)
    if stored != actual:
        raise CheckpointError(
            f"{what} {path} failed its checksum "
            f"(stored {stored:#010x}, recomputed {actual:#010x})"
        )
    return payload


def verify_checkpoint(path: Union[str, pathlib.Path]) -> dict:
    """Integrity-check ``path`` without a model; returns its metadata.

    Raises :class:`CheckpointError` on any defect.
    """
    payload = _open_verified(_norm_path(path))
    return {
        "version": int(payload["version"]),
        "time": float(payload["time"]),
        "step_count": int(payload["step_count"]),
        "grid": (int(payload["nx"]), int(payload["ny"]), int(payload["nz"])),
    }


def load_checkpoint(model: Model, path: Union[str, pathlib.Path]) -> Model:
    """Restore ``model``'s state from a checkpoint written by
    :func:`save_checkpoint`.

    The target model must share the checkpoint's grid shape; the
    decomposition may differ (fields are scattered to the new tiling
    and halos refreshed).  Raises :class:`CheckpointError` on version,
    integrity or shape mismatch.
    """
    path = _norm_path(path)
    payload = _open_verified(path)
    shape = (int(payload["nx"]), int(payload["ny"]), int(payload["nz"]))
    here = (model.config.grid.nx, model.config.grid.ny, model.config.grid.nz)
    if shape != here:
        raise CheckpointError(f"checkpoint grid {shape} != model grid {here}")
    for name in FIELDS_3D:
        key = "f3_" + name
        if key not in payload:
            raise CheckpointError(f"checkpoint {path} lacks field {name!r}")
        model.state.set_from_global(name, payload[key])
    for name in FIELDS_2D:
        key = "f2_" + name
        if key not in payload:
            raise CheckpointError(f"checkpoint {path} lacks field {name!r}")
        model.state.set_from_global(name, payload[key])
    model.state.time = float(payload["time"])
    model.state.step_count = int(payload["step_count"])
    model._first_step = bool(payload["first_step"])
    return model


# ----------------------------------------------------------------------
# Per-rank shards (coordinated checkpointing, repro.recover)
# ----------------------------------------------------------------------

#: Format marker for the sharded (per-rank) variant.
SHARD_VERSION = 1

_SHARD_REQUIRED = (
    "shard_version",
    "rank",
    "time",
    "step_count",
    "first_step",
    "nx",
    "ny",
    "nz",
)


def save_state_shard(
    model: Model, rank: int, path: Union[str, pathlib.Path]
) -> tuple[pathlib.Path, int]:
    """Atomically write rank ``rank``'s tile-local restart state.

    Unlike :func:`save_checkpoint` (a *global* archive, gatherable only
    with every rank's data in one place), a shard holds exactly what one
    rank owns: its tile-local arrays **including halos** for every
    prognostic field, its slices of the coupling fields, and the step
    bookkeeping.  Coordinated checkpointing writes one shard per rank
    plus a manifest (:class:`repro.recover.CoordinatedCheckpointStore`),
    so recovery restores without reassembling global fields.

    Halos are captured as-is, so a restored rank resumes mid-window
    without an extra halo exchange — restart stays bit-exact.

    Returns ``(path, nbytes_on_disk)``; the byte size prices the DES
    disk-write phase.
    """
    path = _norm_path(path)
    payload = {
        "shard_version": np.array(SHARD_VERSION),
        "rank": np.array(rank),
        "time": np.array(model.state.time),
        "step_count": np.array(model.state.step_count),
        "first_step": np.array(model._first_step),
        "nx": np.array(model.config.grid.nx),
        "ny": np.array(model.config.grid.ny),
        "nz": np.array(model.config.grid.nz),
    }
    for name in FIELDS_3D:
        payload["f3_" + name] = model.state.fields3d[name][rank]
    for name in FIELDS_2D:
        payload["f2_" + name] = model.state.fields2d[name][rank]
    for name in sorted(model.coupling):
        payload["cpl_" + name] = model.coupling[name][rank]
    _write_archive(path, payload)
    return path, path.stat().st_size


def load_state_shard(
    model: Model, rank: int, path: Union[str, pathlib.Path]
) -> dict:
    """Restore rank ``rank``'s tile-local state from a shard.

    Arrays are copied *into* the existing tile-local buffers (shapes
    must match — shards are decomposition-bound, unlike global
    checkpoints).  Returns the shard's bookkeeping metadata; the caller
    applies ``time``/``step_count``/``first_step`` once after every
    rank's shard has loaded.  Raises :class:`CheckpointError` on any
    integrity, version, rank or shape mismatch.
    """
    path = _norm_path(path)
    payload = _open_verified(
        path, _SHARD_REQUIRED, "shard_version", SHARD_VERSION, "shard"
    )
    if int(payload["rank"]) != rank:
        raise CheckpointError(
            f"shard {path} belongs to rank {int(payload['rank'])}, not {rank}"
        )
    shape = (int(payload["nx"]), int(payload["ny"]), int(payload["nz"]))
    here = (model.config.grid.nx, model.config.grid.ny, model.config.grid.nz)
    if shape != here:
        raise CheckpointError(f"shard grid {shape} != model grid {here}")

    def _restore(target: np.ndarray, key: str) -> None:
        arr = payload[key]
        if arr.shape != target.shape:
            raise CheckpointError(
                f"shard {path}: {key} shape {arr.shape} != tile shape "
                f"{target.shape} (shards are decomposition-bound)"
            )
        target[...] = arr

    for name in FIELDS_3D:
        key = "f3_" + name
        if key not in payload:
            raise CheckpointError(f"shard {path} lacks field {name!r}")
        _restore(model.state.fields3d[name][rank], key)
    for name in FIELDS_2D:
        key = "f2_" + name
        if key not in payload:
            raise CheckpointError(f"shard {path} lacks field {name!r}")
        _restore(model.state.fields2d[name][rank], key)
    n_ranks = model.decomp.n_ranks
    for key in sorted(payload):
        if not key.startswith("cpl_"):
            continue
        name = key[len("cpl_") :]
        tiles = model.coupling.setdefault(name, [None] * n_ranks)
        arr = np.array(payload[key])
        if tiles[rank] is not None and tiles[rank].shape != arr.shape:
            raise CheckpointError(
                f"shard {path}: coupling field {name!r} shape mismatch"
            )
        tiles[rank] = arr
    return {
        "time": float(payload["time"]),
        "step_count": int(payload["step_count"]),
        "first_step": bool(payload["first_step"]),
        "checksum": int(payload["checksum"]),
    }


def _mtime_or_zero(path: pathlib.Path) -> float:
    """A sort key that survives a file vanishing mid-scan (a dead
    writer's ``*.tmp`` being reaped, a concurrent cleanup)."""
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


def find_latest_good(
    directory: Union[str, pathlib.Path], pattern: str = "*.npz"
) -> Optional[pathlib.Path]:
    """The newest checkpoint in ``directory`` that passes verification.

    Corrupt, truncated or foreign archives — e.g. the torn droppings of
    a writer that died mid-save — are skipped **with a warning**
    (newest first), so a run killed mid-save resumes from the last
    complete state instead of raising over the damage.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob(pattern), key=_mtime_or_zero, reverse=True)
    for cand in candidates:
        try:
            verify_checkpoint(cand)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping damaged checkpoint {cand.name}: {exc}; "
                "falling back to the previous complete checkpoint",
                CheckpointWarning,
                stacklevel=2,
            )
            continue
        return cand
    return None


def resume_latest(
    model: Model, directory: Union[str, pathlib.Path], pattern: str = "*.npz"
) -> Optional[pathlib.Path]:
    """Restore ``model`` from the newest good checkpoint in ``directory``.

    Returns the checkpoint path, or None when no good checkpoint exists
    (the model is left untouched).  Damaged candidates — a torn archive
    from a dead writer — are warned about and skipped, never raised.
    """
    path = find_latest_good(directory, pattern)
    if path is None:
        return None
    load_checkpoint(model, path)
    return path
