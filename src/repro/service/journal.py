"""Crash-safe append-only journal: the service's single source of truth.

Queue state never lives only in memory.  Every lifecycle transition
(submit, start, fail, complete, quarantine, shed, requeue) is appended
to one journal file as a length-prefixed, CRC-32-framed JSON record and
fsynced before the service acts on it.  On startup the journal is
replayed to rebuild the exact queue state, so a SIGKILL'd service
resumes with no lost and no duplicated jobs.

Torn-tail contract (the service may die mid-``write``):

* every record is framed ``>II`` (payload length, CRC-32 of payload)
  followed by the JSON payload bytes;
* replay stops at the first frame that is short, overlong or fails its
  CRC — everything before it is intact by construction;
* :meth:`Journal.recover` discards the torn tail by rewriting the good
  prefix through :func:`repro.durable.atomic_write`, so subsequent
  appends never land after garbage.

A record that was torn was by definition never acted on durably: either
its effect is reconstructed from the run directory (a completed job's
result file is adopted on startup) or the job simply re-runs — which is
safe because jobs are deterministic and idempotent.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import warnings
import zlib
from typing import List, Optional, Tuple, Union

from repro.durable import atomic_write

_FRAME = struct.Struct(">II")

#: Refuse absurd frames (a corrupt length would otherwise make replay
#: try to allocate gigabytes).
MAX_RECORD_BYTES = 16 * 1024 * 1024


class JournalError(ValueError):
    """The journal could not be appended to or replayed."""


class JournalWarning(UserWarning):
    """A torn tail (or similar recoverable damage) was skipped."""


def _frame(record: dict) -> bytes:
    """One record as it sits in the file: ``>II`` header + JSON."""
    payload = json.dumps(record, sort_keys=True).encode()
    if len(payload) > MAX_RECORD_BYTES:
        raise JournalError(f"record of {len(payload)} bytes exceeds frame cap")
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


class Journal:
    """One append-only journal file with CRC-framed JSON records."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._fh = None

    # -- write side ------------------------------------------------------

    def open(self) -> "Journal":
        """Recover any torn tail, then open for appending."""
        if self._fh is None:
            self.recover()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self

    def append(self, record: dict) -> None:
        """Durably append one record (framed, CRC'd, fsynced)."""
        if self._fh is None:
            self.open()
        self._fh.write(_frame(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the append handle (the next append reopens it lazily)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- read side -------------------------------------------------------

    @staticmethod
    def scan(path: Union[str, pathlib.Path]) -> Tuple[List[dict], int, Optional[str]]:
        """Read every intact record of ``path``.

        Returns ``(records, good_bytes, damage)`` where ``good_bytes``
        is the byte offset of the last intact frame's end and ``damage``
        describes the torn tail (None when the file is clean).  Never
        raises on a torn/corrupt tail — that is the normal aftermath of
        a crash — and tolerates a concurrent appender (a reader may
        observe a half-written final frame; it is reported as damage).
        """
        path = pathlib.Path(path)
        records: List[dict] = []
        if not path.exists():
            return records, 0, None
        blob = path.read_bytes()
        off = 0
        while off < len(blob):
            if off + _FRAME.size > len(blob):
                return records, off, f"short frame header at byte {off}"
            length, crc = _FRAME.unpack_from(blob, off)
            if length > MAX_RECORD_BYTES:
                return records, off, f"absurd frame length {length} at byte {off}"
            start = off + _FRAME.size
            payload = blob[start : start + length]
            if len(payload) < length:
                return records, off, f"truncated payload at byte {off}"
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                return records, off, f"CRC mismatch at byte {off}"
            try:
                records.append(json.loads(payload.decode()))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return records, off, f"undecodable payload at byte {off}"
            off = start + length
        return records, off, None

    def replay(self) -> List[dict]:
        """Every intact record, warning (not raising) on a torn tail."""
        records, _, damage = self.scan(self.path)
        if damage is not None:
            warnings.warn(
                f"journal {self.path}: torn tail ignored ({damage})",
                JournalWarning,
                stacklevel=2,
            )
        return records

    # -- repair ----------------------------------------------------------

    def recover(self) -> bool:
        """Atomically truncate a torn tail; returns True if repair ran.

        The good prefix replaces the journal atomically
        (:func:`repro.durable.atomic_write`), so the repair itself can
        crash at any point without losing intact records.
        """
        if self._fh is not None:
            raise JournalError("recover() requires the journal to be closed")
        if not self.path.exists():
            return False
        _, good_bytes, damage = self.scan(self.path)
        if damage is None:
            return False
        warnings.warn(
            f"journal {self.path}: discarding torn tail ({damage})",
            JournalWarning,
            stacklevel=2,
        )
        with open(self.path, "rb") as src, atomic_write(self.path) as dst:
            dst.write(src.read(good_bytes))
        return True

    def compact(self, records: List[dict]) -> None:
        """Atomically rewrite the journal to exactly ``records``."""
        was_open = self._fh is not None
        self.close()
        with atomic_write(self.path) as dst:
            for record in records:
                dst.write(_frame(record))
        if was_open:
            self._fh = open(self.path, "ab")
