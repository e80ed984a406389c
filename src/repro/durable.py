"""One way to make state durable.

Two decisions are taken here and nowhere else in the package:

* **How bytes become durable** — :func:`atomic_write`: new content goes
  to a per-process sibling ``<name>.tmp<pid>``, is flushed and fsynced,
  and only then moved over the destination with :func:`os.replace`.  A
  reader sees the old file or the new one, never a mixture; a writer
  that dies or raises mid-write leaves the destination byte-identical
  (and, if it raised, no sibling); the pid keeps two processes writing
  one path out of each other's sibling.  The directory is not fsynced:
  after a power loss the rename may be lost, never torn.
* **What makes an on-disk state "good"** — :func:`newest_good`: of the
  candidates, newest first, the first that loads without a
  :class:`CheckpointError` wins; each damaged one is skipped with a
  :class:`CheckpointWarning`, so a run killed mid-save resumes from the
  previous complete state instead of raising over the damage.

GCM checkpoints and shards, the coordinated store's manifest and the
service's journal rewrites, spool, result and status files all go
through :func:`atomic_write`; ``scripts/ci.sh``'s ``durable-writes``
stage fails if the sequence is spelled anywhere else.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import warnings
from typing import Callable, IO, Iterable, Iterator, Optional, Tuple, TypeVar, Union

T = TypeVar("T")


class CheckpointError(ValueError):
    """A checkpoint could not be written or restored: wrong version,
    truncated/corrupt archive, checksum mismatch, or missing fields."""


class CheckpointWarning(UserWarning):
    """A damaged checkpoint was skipped during auto-resume; recovery
    fell back to the previous complete one instead of raising."""


@contextlib.contextmanager
def atomic_write(path: Union[str, pathlib.Path], mode: str = "wb") -> Iterator[IO]:
    """Open a file that replaces ``path`` atomically when the block ends.

    If the block (or the flush) raises, ``path`` is untouched and the
    sibling is removed.  Text modes write UTF-8.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json_atomic(path: Union[str, pathlib.Path], obj: dict) -> None:
    """:func:`atomic_write` ``obj`` as JSON, so a reader never sees a
    half-written file."""
    with atomic_write(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def newest_good(
    candidates: Iterable[pathlib.Path], load: Callable[[pathlib.Path], T]
) -> Optional[Tuple[pathlib.Path, T]]:
    """The first of ``candidates`` (newest first) that ``load`` accepts
    and what it loaded; None when nothing verifies.  A ``load`` that
    raises :class:`CheckpointError` is warned about and skipped."""
    for cand in candidates:
        try:
            return cand, load(cand)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping damaged checkpoint {cand.name}: {exc}; "
                "falling back to the previous complete checkpoint",
                CheckpointWarning,
                stacklevel=3,
            )
    return None
