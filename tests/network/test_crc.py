"""Tests for the CRC-16/CCITT implementation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.network.crc import crc16, crc16_words

import _reference_crc


def test_known_vector_123456789():
    # CRC-16/CCITT-FALSE check value for "123456789".
    assert crc16(b"123456789") == 0x29B1


def test_empty_is_init():
    assert crc16(b"") == 0xFFFF


def test_incremental_equals_whole():
    data = b"the quick brown fox"
    whole = crc16(data)
    partial = crc16(data[7:], crc16(data[:7]))
    assert whole == partial


def test_words_equals_bytes():
    words = [0x01020304, 0xA0B0C0D0]
    raw = b"\x01\x02\x03\x04\xa0\xb0\xc0\xd0"
    assert crc16_words(words) == crc16(raw)


@given(st.binary(min_size=1, max_size=64), st.data())
def test_single_bit_flip_always_detected(data, draw):
    """CRC-16 detects every single-bit error (guaranteed by the theory)."""
    bit = draw.draw(st.integers(min_value=0, max_value=len(data) * 8 - 1))
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert crc16(bytes(flipped)) != crc16(data)


@given(st.binary(max_size=64))
def test_crc_is_16_bits(data):
    assert 0 <= crc16(data) <= 0xFFFF


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=24))
def test_word_crc_deterministic(words):
    assert crc16_words(words) == crc16_words(list(words))


# -- the C path (binascii.crc_hqx) against the table-driven oracle ----------


@given(st.binary(max_size=256))
def test_bytes_equal_table_oracle(data):
    assert crc16(data) == _reference_crc.crc16(data)


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=24))
def test_words_equal_table_oracle(words):
    assert crc16_words(words) == _reference_crc.crc16_words(words)


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_chained_continuation_equals_table_oracle(a, b):
    chained = crc16(b, crc16(a))
    assert chained == _reference_crc.crc16(b, _reference_crc.crc16(a))
    assert chained == crc16(a + b)


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=24))
def test_out_of_range_words_keep_their_low_32_bits(words):
    """The table version masked each word; the struct path must too."""
    assert crc16_words(words) == _reference_crc.crc16_words(words)


def test_oracle_agrees_on_the_check_value():
    assert _reference_crc.crc16(b"123456789") == crc16(b"123456789") == 0x29B1


def test_payload_flipped_in_flight_is_caught_at_the_next_router():
    """No verdict is cached: a packet whose payload word changes after
    construction (``corrupt`` never set) fails the recomputed CRC at the
    next router stage and is dropped there."""
    from repro.network import FatTree
    from repro.network.packet import Packet
    from repro.sim import Engine

    engine = Engine()
    fabric = FatTree(engine, 4)
    got = []
    for ep in range(4):
        fabric.attach_endpoint(ep, got.append)
    pkt = Packet(src=0, dst=3, payload_words=[7, 8, 9])
    assert pkt.check_crc()
    fabric.inject(pkt)
    fabric.inject(Packet(src=0, dst=3, payload_words=[1, 2, 3]))
    pkt.payload_words[1] ^= 1 << 13  # a bit flips on the injection wire
    engine.run()
    assert not pkt.corrupt
    assert fabric.total_crc_errors() == 1
    assert fabric.routers[0].crc_errors == 1  # R1.0.0, the very first stage
    assert [p.payload_words for p in got] == [[1, 2, 3]]
