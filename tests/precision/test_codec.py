"""Property tests for the wire casts: the halo exchange's float32 cast
equals the collectives' literal big-endian wire round trip, and is
idempotent; the packed size is exact; plus the global-sum contribution
cast."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.schedules import build
from repro.collectives.semantics import ItemStore
from repro.parallel.exchange import exchange_halos
from repro.parallel.tiling import Decomposition
from repro.precision import quantize_gsum

finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e30, max_value=1e30
)

#: 2x2 tiles of 4x4, doubly periodic: every halo is filled, and the
#: corners by the pass-2 resend of pass-1 halo data
DECOMP = Decomposition(8, 8, 2, 2, olx=1, periodic_y=True)
N_INTERIOR = 4 * 4 * 4
HALO = np.ones((4, 6, 6), dtype=bool)
HALO[:, 1:-1, 1:-1] = False


def fields_from(draw) -> np.ndarray:
    """A rank-stacked float64 field with drawn interiors and zero halos."""
    values = np.array(draw(st.lists(finite_doubles, min_size=N_INTERIOR, max_size=N_INTERIOR)))
    fields = np.zeros((4, 6, 6))
    fields[~HALO] = values
    return fields


def exchanged(fields: np.ndarray, wire_dtype=None) -> np.ndarray:
    out = fields.copy()
    exchange_halos(DECOMP, out, wire_dtype=wire_dtype)
    return out


def wire_roundtrip(arr: np.ndarray, wire_dtype) -> np.ndarray:
    """``arr`` packed by one rank's ItemStore and absorbed by another's:
    the bytes a real wire carries, back at float64."""
    sch = build("allgather", "ring", 2, 8 * arr.size)
    sender = ItemStore(sch, 0, arr.ravel(), wire_dtype=wire_dtype)
    receiver = ItemStore(sch, 1, np.zeros(arr.size), wire_dtype=wire_dtype)
    receiver.absorb(sender.serialize([("block", 0)]))
    return receiver.get(("block", 0)).reshape(arr.shape)


class TestCastMatchesWire:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cast_equals_pack_unpack(self, data):
        """Every halo value the float32 exchange lands is bit-for-bit
        what a receiver sees after the literal wire round trip."""
        fields = fields_from(data.draw)
        plain = exchanged(fields)
        cast = exchanged(fields, np.float32)
        assert cast.dtype == np.float64
        np.testing.assert_array_equal(cast[~HALO], fields[~HALO])
        np.testing.assert_array_equal(cast[HALO], wire_roundtrip(plain[HALO], np.float32))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cast_is_idempotent(self, data):
        """A second trip through the wire changes nothing (the pass-2
        corner resend of the halo exchange relies on this)."""
        once = exchanged(fields_from(data.draw), np.float32)
        np.testing.assert_array_equal(exchanged(once, np.float32), once)
        np.testing.assert_array_equal(wire_roundtrip(once[HALO], np.float32), once[HALO])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_float64_wire_is_identity(self, data):
        fields = fields_from(data.draw)
        plain = exchanged(fields)
        np.testing.assert_array_equal(exchanged(fields, np.float64), plain)
        np.testing.assert_array_equal(wire_roundtrip(plain, np.float64), plain)


class TestByteAccounting:
    @pytest.mark.parametrize("dtype,itemsize", [(np.float32, 4), (np.float64, 8)])
    def test_pack_length_is_exact(self, dtype, itemsize):
        """One 17-element item packs to its 2-byte count, its 9-byte
        header and exactly 17 elements at the wire width."""
        sch = build("allgather", "ring", 2, 17 * 8)
        store = ItemStore(sch, 0, np.linspace(0.0, 1.0, 17), wire_dtype=dtype)
        data = store.serialize([("block", 0)])
        assert len(data) == store.serialized_nbytes([("block", 0)]) == 2 + 9 + 17 * itemsize


class TestQuantizeGsum:
    def test_float64_returns_none(self):
        assert quantize_gsum([1.0, 2.0], np.float64) is None

    def test_float32_quantizes_each_partial(self):
        partials = [1.0 + 1e-12, np.pi]
        got = quantize_gsum(partials, np.float32)
        expected = [float(np.float32(p)) for p in partials]
        assert got == expected
        assert all(isinstance(v, float) for v in got)
