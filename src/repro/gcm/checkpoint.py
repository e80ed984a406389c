"""Checkpoint/restart for model integrations.

A numerical experiment "may entail many millions of time-steps"
(Fig. 6 caption) — production runs checkpoint and restart.  The restart
contract here is **bit-exact**: an integration split by a
save/load round trip produces exactly the same state as an unbroken
one, because every array the stepping scheme consults (prognostic
fields, both Adams-Bashforth G-term time levels, the surface pressure)
plus the step bookkeeping is captured.

A *checkpoint* is a portable ``.npz`` archive of *global* fields, so a
run may be restarted on a different decomposition; a *shard* is the
same layout holding what one rank owns (tile-local arrays with halos),
written per rank by :class:`repro.recover.CoordinatedCheckpointStore`.

Durability contract (a century-scale run must survive a killed
process):

* **Atomic writes** — every archive goes through
  :func:`repro.durable.atomic_write`, so a crash mid-save can never
  destroy the previous good checkpoint.
* **Self-verifying archives** — every archive embeds a CRC-32 over
  all payload arrays; truncation, corruption or a wrong version raises
  :class:`CheckpointError` (never a raw numpy/zipfile exception).
* **Auto-resume** — :func:`find_latest_good` scans a directory for the
  newest checkpoint that still verifies
  (:func:`repro.durable.newest_good`), and :func:`resume_latest`
  restores a model from it.
"""

from __future__ import annotations

import pathlib
import zipfile
import zlib
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.durable import (  # noqa: F401  (the classes' public home is here)
    CheckpointError,
    CheckpointWarning,
    atomic_write,
    newest_good,
)
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.gcm.timestepper import Model

#: Format marker for forward compatibility.
CHECKPOINT_VERSION = 2

#: Format marker for the sharded (per-rank) variant.
SHARD_VERSION = 1

#: Step bookkeeping and grid shape, carried by both flavours.
_BOOKKEEPING = ("time", "step_count", "first_step", "nx", "ny", "nz")

#: Archive key prefix -> the prognostic fields stored under it.
_FIELD_GROUPS = (("f3_", FIELDS_3D), ("f2_", FIELDS_2D))


class _Flavour(NamedTuple):
    """What tells a global checkpoint from a per-rank shard."""

    what: str  # the noun CheckpointError messages use
    version_key: str
    version: int
    required: Tuple[str, ...]  # scalar entries an archive must carry


_GLOBAL = _Flavour(
    "checkpoint", "version", CHECKPOINT_VERSION, ("version",) + _BOOKKEEPING
)
_SHARD = _Flavour(
    "shard", "shard_version", SHARD_VERSION, ("shard_version", "rank") + _BOOKKEEPING
)


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


def _write_archive(
    flavour: _Flavour,
    model: Model,
    path: pathlib.Path,
    field_of: Callable[[str], np.ndarray],
    head: dict,
    tail: dict,
) -> int:
    """Write one archive atomically and durably: version marker,
    ``head``, bookkeeping, ``field_of(name)`` for every prognostic
    field, ``tail``, and the CRC over all of it (returned)."""
    grid = model.config.grid
    payload = {
        flavour.version_key: np.array(flavour.version),
        **head,
        "time": np.array(model.state.time),
        "step_count": np.array(model.state.step_count),
        "first_step": np.array(model._first_step),
        "nx": np.array(grid.nx),
        "ny": np.array(grid.ny),
        "nz": np.array(grid.nz),
    }
    for prefix, names in _FIELD_GROUPS:
        for name in names:
            payload[prefix + name] = field_of(name)
    payload.update(tail)
    checksum = _payload_checksum(payload)
    payload["checksum"] = np.array(checksum, dtype=np.uint32)
    # np.savez_compressed appends ".npz" to string paths, so it gets the
    # open file object
    with atomic_write(path) as fh:
        np.savez_compressed(fh, **payload)
    return checksum


def _open_verified(path: pathlib.Path, flavour: _Flavour = _GLOBAL) -> dict:
    """Load and integrity-check an archive; returns the payload dict."""
    what, version_key, version, required = flavour
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


def _fields_for(
    flavour: _Flavour, model: Model, payload: dict, path: pathlib.Path
) -> Iterator[Tuple[str, np.ndarray]]:
    """Check the archive's grid against ``model``'s, then yield every
    prognostic field as ``(name, array)``; a mismatch or a missing
    field raises :class:`CheckpointError`."""
    what = flavour.what
    shape = (int(payload["nx"]), int(payload["ny"]), int(payload["nz"]))
    grid = model.config.grid
    here = (grid.nx, grid.ny, grid.nz)
    if shape != here:
        raise CheckpointError(f"{what} grid {shape} != model grid {here}")
    for prefix, names in _FIELD_GROUPS:
        for name in names:
            if prefix + name not in payload:
                raise CheckpointError(f"{what} {path} lacks field {name!r}")
            yield name, payload[prefix + name]


def save_checkpoint(model: Model, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Atomically write the model's complete restart state to ``path``.

    The archive lands under its final name only after it is fully
    written and fsynced.
    """
    path = _norm_path(path)
    _write_archive(_GLOBAL, model, path, model.state.to_global, {}, {})
    return path


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


def _restore_global(model: Model, payload: dict, path: pathlib.Path) -> None:
    for name, arr in _fields_for(_GLOBAL, model, payload, path):
        model.state.set_from_global(name, arr)
    model.state.time = float(payload["time"])
    model.state.step_count = int(payload["step_count"])
    model._first_step = bool(payload["first_step"])


def load_checkpoint(model: Model, path: Union[str, pathlib.Path]) -> Model:
    """Restore ``model``'s state from a checkpoint written by
    :func:`save_checkpoint`.

    The target model must share the checkpoint's grid shape; the
    decomposition may differ (fields are scattered to the new tiling
    and halos refreshed).  Raises :class:`CheckpointError` on version,
    integrity or shape mismatch.
    """
    path = _norm_path(path)
    _restore_global(model, _open_verified(path), path)
    return model


# -- per-rank shards (coordinated checkpointing, repro.recover) ---------


def save_state_shard(
    model: Model, rank: int, path: Union[str, pathlib.Path]
) -> Tuple[pathlib.Path, int, int]:
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

    Returns ``(path, nbytes_on_disk, checksum)``: the byte size prices
    the DES disk-write phase, the CRC binds the shard to its manifest.
    """
    path = _norm_path(path)
    checksum = _write_archive(
        _SHARD,
        model,
        path,
        lambda name: model.state[name][rank],
        {"rank": np.array(rank)},
        {"cpl_" + n: model.coupling[n][rank] for n in sorted(model.coupling)},
    )
    return path, path.stat().st_size, checksum


def load_state_shard(
    model: Model, rank: int, path: Union[str, pathlib.Path]
) -> dict:
    """Restore rank ``rank``'s tile-local state from a shard.

    Arrays are copied *into* the existing tile-local buffers (shapes
    must match — shards are decomposition-bound, unlike global
    checkpoints).  Returns the shard's bookkeeping metadata and its
    ``checksum``; the caller applies ``time``/``step_count``/
    ``first_step`` once after every rank's shard has loaded.  Raises
    :class:`CheckpointError` on any integrity, version, rank or shape
    mismatch.
    """
    path = _norm_path(path)
    payload = _open_verified(path, _SHARD)
    if int(payload["rank"]) != rank:
        raise CheckpointError(
            f"shard {path} belongs to rank {int(payload['rank'])}, not {rank}"
        )
    for name, arr in _fields_for(_SHARD, model, payload, path):
        target = model.state[name][rank]
        if arr.shape != target.shape:
            raise CheckpointError(
                f"shard {path}: {name} shape {arr.shape} != tile shape "
                f"{target.shape} (shards are decomposition-bound)"
            )
        target[...] = arr
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
    """A sort key that survives a file vanishing mid-scan (a concurrent
    cleanup)."""
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


def _newest_checkpoint(
    directory: Union[str, pathlib.Path],
) -> Optional[Tuple[pathlib.Path, dict]]:
    """``(path, verified payload)`` of the newest good checkpoint."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return None
    return newest_good(
        sorted(directory.glob("*.npz"), key=_mtime_or_zero, reverse=True),
        _open_verified,
    )


def find_latest_good(directory: Union[str, pathlib.Path]) -> Optional[pathlib.Path]:
    """The newest checkpoint in ``directory`` that passes verification.

    Corrupt, truncated or foreign archives — e.g. the torn droppings of
    a writer that died mid-save — are skipped **with a warning**
    (newest first), so a run killed mid-save resumes from the last
    complete state instead of raising over the damage.
    """
    found = _newest_checkpoint(directory)
    return None if found is None else found[0]


def resume_latest(
    model: Model, directory: Union[str, pathlib.Path]
) -> Optional[pathlib.Path]:
    """Restore ``model`` from the newest good checkpoint in ``directory``.

    Returns the checkpoint path, or None when no good checkpoint exists
    (the model is left untouched).  Damaged candidates — a torn archive
    from a dead writer — are warned about and skipped, never raised.
    """
    found = _newest_checkpoint(directory)
    if found is None:
        return None
    path, payload = found
    _restore_global(model, payload, path)
    return path
