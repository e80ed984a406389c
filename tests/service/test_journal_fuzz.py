"""Journal fuzz: random tail damage must never corrupt committed state.

The crash-safety contract (see :mod:`repro.service.journal`) is easy to
verify for the handful of hand-built tears in ``test_journal.py``; this
file drives the same contract through hundreds of *random* damage
patterns — truncation at an arbitrary byte, bit flips anywhere in the
tail, and partially-written appends — and checks three invariants for
every one:

* ``recover()``/``replay()``/``scan()`` never raise;
* every record whose frame ends before the first damaged byte is
  preserved exactly (committed records are never lost);
* replay returns a strict prefix of what was written — a damaged or
  half-written record is never resurrected, in whole or mangled.
"""

import json
import random
import struct
import zlib

import pytest

from repro.service import Journal


def _make_records(rng, n):
    return [
        {
            "type": rng.choice(["submit", "start", "complete", "fail"]),
            "job_id": f"job-{i}",
            "payload": rng.getrandbits(64),
        }
        for i in range(n)
    ]


def _frame_ends(records):
    """Byte offset at which each record's frame ends."""
    ends, off = [], 0
    for record in records:
        payload = json.dumps(record, sort_keys=True).encode()
        off += struct.calcsize(">II") + len(payload)
        ends.append(off)
    return ends


def _committed_prefix(records, ends, first_damaged_byte):
    """Records whose frames lie wholly before the damage."""
    return [r for r, end in zip(records, ends) if end <= first_damaged_byte]


def _check_contract(path, records, ends, first_damaged_byte):
    committed = _committed_prefix(records, ends, first_damaged_byte)
    scanned, good_bytes, _ = Journal.scan(path)

    # Nothing committed is lost: the scan keeps at least every record
    # that predates the damage, byte-for-byte identical.
    assert scanned[: len(committed)] == committed
    # Nothing torn is resurrected: whatever survived beyond that is a
    # prefix of what was actually written (a CRC-valid frame the damage
    # happened to miss), never a mangled or invented record.
    assert scanned == records[: len(scanned)]

    journal = Journal(path)
    journal.recover()  # must never raise, clean or torn
    assert journal.replay() == scanned  # repair preserved the prefix
    assert Journal.scan(path)[2] is None  # and left no damage behind

    # The repaired journal must accept appends like a fresh one.
    extra = {"type": "requeue", "job_id": "post-repair"}
    with journal:
        journal.append(extra)
    assert journal.replay() == scanned + [extra]


def _write(path, records):
    with Journal(path) as journal:
        for record in records:
            journal.append(record)


@pytest.mark.filterwarnings("ignore::repro.service.JournalWarning")
@pytest.mark.parametrize("seed", range(40))
def test_random_truncation(tmp_path, seed):
    rng = random.Random(1000 + seed)
    records = _make_records(rng, rng.randint(1, 12))
    path = tmp_path / "j.bin"
    _write(path, records)
    ends = _frame_ends(records)

    cut = rng.randrange(ends[-1] + 1)  # 0 .. full length inclusive
    with open(path, "r+b") as fh:
        fh.truncate(cut)

    _check_contract(path, records, ends, first_damaged_byte=cut)


@pytest.mark.filterwarnings("ignore::repro.service.JournalWarning")
@pytest.mark.parametrize("seed", range(40))
def test_random_bit_flips(tmp_path, seed):
    rng = random.Random(2000 + seed)
    records = _make_records(rng, rng.randint(2, 12))
    path = tmp_path / "j.bin"
    _write(path, records)
    ends = _frame_ends(records)

    blob = bytearray(path.read_bytes())
    # Flip 1-4 bits in the tail half of the file (crashes tear tails,
    # not heads — but any earlier offset would satisfy the same checks).
    lo = ends[len(ends) // 2 - 1]
    flips = sorted(rng.randrange(lo, len(blob)) for _ in range(rng.randint(1, 4)))
    for off in flips:
        blob[off] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(blob))

    _check_contract(path, records, ends, first_damaged_byte=flips[0])


@pytest.mark.filterwarnings("ignore::repro.service.JournalWarning")
@pytest.mark.parametrize("seed", range(20))
def test_partial_append_then_reopen(tmp_path, seed):
    """A SIGKILL mid-append: the torn record must vanish, silently and
    completely, and the reopened journal must keep working."""
    rng = random.Random(3000 + seed)
    records = _make_records(rng, rng.randint(1, 8))
    path = tmp_path / "j.bin"
    _write(path, records)
    ends = _frame_ends(records)

    torn = {"type": "complete", "job_id": "torn", "nonce": rng.getrandbits(64)}
    payload = json.dumps(torn, sort_keys=True).encode()
    frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
    keep = rng.randrange(1, len(frame))  # at least 1 byte short
    with open(path, "ab") as fh:
        fh.write(frame[:keep])

    # open() runs recover(); the torn record must not survive it.
    with Journal(path) as journal:
        replayed = journal.replay()
    assert replayed == records
    assert torn not in replayed
    _check_contract(path, records, ends, first_damaged_byte=ends[-1])
