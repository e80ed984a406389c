"""Tests for the StarT-X packet format (paper Fig. 1b)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.crc import crc16_words
from repro.network.packet import (
    MAX_PAYLOAD_WORDS,
    MIN_PAYLOAD_WORDS,
    Packet,
    Priority,
)

import _reference_crc


def test_minimum_payload_is_two_words():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload_words=[1])


def test_maximum_payload_is_22_words():
    Packet(src=0, dst=1, payload_words=[0] * MAX_PAYLOAD_WORDS)
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload_words=[0] * (MAX_PAYLOAD_WORDS + 1))


def test_tag_must_fit_11_bits():
    Packet(src=0, dst=1, tag=2**11 - 1)
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, tag=2**11)


def test_wire_bytes_includes_two_header_words():
    pkt = Packet(src=0, dst=1, payload_words=[1, 2])
    assert pkt.payload_bytes == 8
    assert pkt.wire_bytes == 16  # 2 header + 2 payload words


def test_crc_computed_on_construction_and_checks():
    pkt = Packet(src=3, dst=9, payload_words=[5, 6, 7])
    assert pkt.check_crc()


def test_payload_tamper_detected():
    pkt = Packet(src=3, dst=9, payload_words=[5, 6, 7])
    pkt.payload_words[1] ^= 0x40
    assert not pkt.check_crc()


def test_corrupt_flag_fails_crc():
    pkt = Packet(src=0, dst=1)
    pkt.corrupt = True
    assert not pkt.check_crc()


def test_header_encodes_priority_and_size():
    pkt = Packet(src=2, dst=5, payload_words=[0] * 7, tag=0x123, priority=Priority.HIGH)
    w0, w1 = pkt.header_words()
    assert (w0 >> 31) & 1 == int(Priority.HIGH)
    assert (w0 >> 15) & 0xFFFF == 5  # downroute carries dst
    assert w1 & 0x1F == 7  # 5-bit size field
    assert (w1 >> 5) & 0x7FF == 0x123  # 11-bit usr tag


def test_default_priority_is_low():
    assert Packet(src=0, dst=1).priority == Priority.LOW


def test_high_priority_sorts_before_low():
    assert Priority.HIGH < Priority.LOW


@given(
    src=st.integers(min_value=0, max_value=2**14 - 1),
    dst=st.integers(min_value=0, max_value=2**16 - 1),
    tag=st.integers(min_value=0, max_value=2**11 - 1),
    n=st.integers(min_value=MIN_PAYLOAD_WORDS, max_value=MAX_PAYLOAD_WORDS),
    data=st.data(),
)
def test_header_roundtrip_any_fields(src, dst, tag, n, data):
    words = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), min_size=n, max_size=n
        )
    )
    pkt = Packet(src=src, dst=dst, payload_words=words, tag=tag)
    w0, w1 = pkt.header_words()
    assert (w0 >> 15) & 0xFFFF == dst
    assert (w1 >> 18) & 0x3FFF == src
    assert (w1 >> 5) & 0x7FF == tag
    assert w1 & 0x1F == n
    assert pkt.check_crc()
    assert pkt.wire_bytes == 4 * (2 + n)


@given(
    src=st.integers(min_value=0, max_value=2**14 - 1),
    dst=st.integers(min_value=0, max_value=2**16 - 1),
    tag=st.integers(min_value=0, max_value=2**11 - 1),
    priority=st.sampled_from(Priority),
    random_uproute=st.booleans(),
    words=st.lists(
        st.integers(min_value=-(2**40), max_value=2**40),
        min_size=MIN_PAYLOAD_WORDS, max_size=MAX_PAYLOAD_WORDS,
    ),
)
def test_crc_covers_the_header_words_and_the_masked_payload(
    src, dst, tag, priority, random_uproute, words
):
    """``compute_crc`` encodes the header in place: it must stay the CRC
    of ``header_words()`` followed by the payload (out-of-range words by
    their low 32 bits), as the table-driven oracle computes it."""
    pkt = Packet(
        src=src, dst=dst, payload_words=words, tag=tag,
        priority=priority, random_uproute=random_uproute,
    )
    wire = [*pkt.header_words(), *words]
    assert pkt.crc == pkt.compute_crc() == _reference_crc.crc16_words(wire)
    assert pkt.crc == crc16_words(wire)


def test_crc_is_recomputed_at_every_check():
    pkt = Packet(src=3, dst=9, payload_words=[5, 6, 7])
    for field, value in (("dst", 10), ("src", 4), ("tag", 1), ("priority", Priority.HIGH)):
        before = getattr(pkt, field)
        setattr(pkt, field, value)
        assert not pkt.check_crc(), field
        setattr(pkt, field, before)
        assert pkt.check_crc()
