"""CRC-16/CCITT-FALSE, as used to verify Arctic packets at each stage.

The paper (Section 2.2) states that message correctness is verified at
every router stage and at the endpoints using CRC, so that software can
assume error-free operation and only check a single status bit.

The polynomial (0x1021, MSB first, no reflection, no final XOR) is the
one :func:`binascii.crc_hqx` implements in C; seeding it with 0xFFFF
gives CCITT-FALSE (check value 0x29B1).  The table-driven Python
original lives on as the oracle in ``tests/network/_reference_crc.py``.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx

_INIT = 0xFFFF


def crc16(data: bytes, crc: int = _INIT) -> int:
    """CRC-16/CCITT-FALSE of ``data``, optionally continuing from ``crc``."""
    return crc_hqx(data, crc)


def crc16_words(words: list[int]) -> int:
    """CRC over a list of 32-bit words (big-endian byte order)."""
    try:
        buf = struct.pack(">%dI" % len(words), *words)
    except struct.error:
        # a word outside 0..2**32-1: only its low 32 bits are on the wire
        buf = struct.pack(">%dI" % len(words), *[w & 0xFFFFFFFF for w in words])
    return crc_hqx(buf, _INIT)
