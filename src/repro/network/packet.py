"""The StarT-X message format (paper Fig. 1b).

A message is two 32-bit header words followed by 2–22 32-bit payload
words:

========  =======================================================
word      contents
========  =======================================================
header 0  priority(1) | downroute(16) | reserved(15)
header 1  uproute(14) | random-uproute(1) | usr tag(11) | size(5)
payload   2..22 words
========  =======================================================

The packet carries its own CRC, recomputed/verified at every router stage
and at the endpoints; a single corrupt bit is therefore detectable and the
receiving software only checks a one-bit status.
"""

from __future__ import annotations

import enum
import struct
from binascii import crc_hqx
from dataclasses import dataclass, field
from typing import Any, Optional

MIN_PAYLOAD_WORDS = 2
MAX_PAYLOAD_WORDS = 22
HEADER_WORDS = 2
WORD_BYTES = 4
#: payload length -> big-endian packer of the header and payload words.
_PACK = {
    n: struct.Struct(">%dI" % (HEADER_WORDS + n)).pack
    for n in range(MIN_PAYLOAD_WORDS, MAX_PAYLOAD_WORDS + 1)
}


class Priority(enum.IntEnum):
    """Arctic's two message priorities.

    The fabric guarantees a HIGH priority message can never be blocked by
    LOW priority traffic (Section 2.2); lower numeric value = served first.
    """

    HIGH = 0
    LOW = 1


@dataclass
class Packet:
    """One StarT-X network packet.

    ``payload_words`` carries the logical 32-bit words; ``data`` may carry
    an arbitrary Python object rider for the functional simulation (the
    timing model uses only sizes).
    """

    src: int
    dst: int
    payload_words: list[int] = field(default_factory=lambda: [0, 0])
    tag: int = 0
    priority: Priority = Priority.LOW
    random_uproute: bool = False
    data: Any = None  # functional rider (not part of the wire format)
    crc: Optional[int] = None
    corrupt: bool = False  # set by fault injection; detected via CRC
    # Bookkeeping filled in by the fabric:
    hops: int = 0
    send_time: float = 0.0
    recv_time: float = 0.0
    #: Per-source injection number, stamped by ``fabric.inject``; the
    #: fat tree's random up-routing hashes it (never on the wire).
    inject_seq: int = 0
    #: Ids of the links to cross, stamped by ``fabric.inject`` from the
    #: topology's route (the header's up/down route fields, spelled out);
    #: the router at hop ``k`` forwards on ``route[k]``.
    route: tuple = ()

    def __post_init__(self) -> None:
        n = len(self.payload_words)
        if not (MIN_PAYLOAD_WORDS <= n <= MAX_PAYLOAD_WORDS):
            raise ValueError(
                f"payload must be {MIN_PAYLOAD_WORDS}..{MAX_PAYLOAD_WORDS} "
                f"32-bit words, got {n}"
            )
        if not (0 <= self.tag < 2**11):
            raise ValueError(f"usr tag must fit in 11 bits, got {self.tag}")
        if self.crc is None:
            self.crc = self.compute_crc()

    @property
    def size_words(self) -> int:
        """Payload size in 32-bit words (the 5-bit 'size' header field)."""
        return len(self.payload_words)

    @property
    def payload_bytes(self) -> int:
        return self.size_words * WORD_BYTES

    @property
    def wire_bytes(self) -> int:
        """Bytes serialized on a link: header + payload."""
        return (HEADER_WORDS + len(self.payload_words)) * WORD_BYTES

    def header_words(self) -> list[int]:
        """Encode the two header words of Fig. 1(b)."""
        w0 = (int(self.priority) << 31) | ((self.dst & 0xFFFF) << 15)
        w1 = (
            ((self.src & 0x3FFF) << 18)
            | (int(self.random_uproute) << 17)
            | ((self.tag & 0x7FF) << 5)
            | (len(self.payload_words) & 0x1F)
        )
        return [w0, w1]

    def compute_crc(self) -> int:
        """CRC-16/CCITT-FALSE over :meth:`header_words` and the payload
        words; every router stage calls this, so the header is encoded
        in place."""
        words = self.payload_words
        w0 = (self.priority << 31) | ((self.dst & 0xFFFF) << 15)
        w1 = (
            ((self.src & 0x3FFF) << 18)
            | (self.random_uproute << 17)
            | ((self.tag & 0x7FF) << 5)
            | (len(words) & 0x1F)
        )
        try:
            return crc_hqx(_PACK[len(words)](w0, w1, *words), 0xFFFF)
        except struct.error:
            # a word outside 0..2**32-1: only its low 32 bits are on the wire
            masked = [w & 0xFFFFFFFF for w in words]
            return crc_hqx(_PACK[len(words)](w0, w1, *masked), 0xFFFF)

    def check_crc(self) -> bool:
        """Verify packet integrity; ``corrupt`` packets always fail."""
        if self.corrupt:
            return False
        return self.crc == self.compute_crc()
