"""The table-driven CRC-16/CCITT-FALSE, kept as a differential oracle.

This is ``repro.network.crc`` as it stood before it moved onto
``binascii.crc_hqx``: a 256-entry table and one Python iteration per
byte.  ``tests/network/test_crc.py`` checks the C path against it.
"""

from __future__ import annotations

_POLY = 0x1021
_INIT = 0xFFFF


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_TABLE = _build_table()


def crc16(data: bytes, crc: int = _INIT) -> int:
    """CRC-16/CCITT-FALSE of ``data``, optionally continuing from ``crc``."""
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def crc16_words(words: list[int], crc: int = _INIT) -> int:
    """CRC over a list of 32-bit words (big-endian byte order)."""
    buf = b"".join(int(w & 0xFFFFFFFF).to_bytes(4, "big") for w in words)
    return crc16(buf, crc)
