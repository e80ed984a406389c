"""Casting wire codec: value semantics + exact byte accounting.

A payload sent at float32 does two things, and this module keeps them
honest together:

* **values** pass through the wire dtype — ``cast`` reproduces exactly
  the quantization a receiver would see after unpack (cast down, cast
  back up), and ``pack``/``unpack`` are the literal big-endian wire
  bytes;
* **bytes** shrink — ``nbytes`` is the exact on-wire size, which is
  what the backend cost models must be handed so smaller messages are
  *priced* smaller.

The codec is deliberately tiny and stateless apart from a byte counter,
so the property tests can assert cast-pack-unpack determinism,
idempotence and exact byte accounting without mocking anything.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

_WIRE_FMT = {4: ">f4", 8: ">f8"}


class WireCodec:
    """Pack/unpack one wire dtype; counts every byte it moves."""

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"wire dtype must be float32/float64, got {dtype}")
        #: big-endian on-wire format (the collectives' header convention)
        self.wire_format = _WIRE_FMT[self.dtype.itemsize]
        #: total payload bytes packed (or cast) through this codec
        self.bytes_packed = 0

    @property
    def itemsize(self) -> int:
        return int(self.dtype.itemsize)

    def nbytes(self, n_elements: int) -> int:
        """Exact payload bytes of ``n_elements`` on the wire."""
        return int(n_elements) * self.itemsize

    def cast(self, arr: np.ndarray) -> np.ndarray:
        """The value a receiver sees: one trip through the wire dtype.

        Identity (bit-exact) when the array already stores at or below
        the wire precision; quantization when it does not.  Counts the
        array's wire bytes either way.
        """
        arr = np.asarray(arr)
        self.bytes_packed += self.nbytes(arr.size)
        if arr.dtype == self.dtype or self.dtype == np.float64:
            return arr
        return arr.astype(self.dtype)

    def pack(self, arr: np.ndarray) -> bytes:
        """The literal wire bytes (big-endian, at the wire dtype)."""
        arr = np.asarray(arr)
        self.bytes_packed += self.nbytes(arr.size)
        return np.ascontiguousarray(arr).astype(self.wire_format).tobytes()

    def unpack(self, data: bytes, count: int, offset: int = 0) -> np.ndarray:
        """Decode ``count`` elements; returns a native-order array at
        the wire dtype (the receiver upcasts by assignment)."""
        return np.frombuffer(
            data, dtype=self.wire_format, count=count, offset=offset
        ).astype(self.dtype)

    def roundtrip(self, arr: np.ndarray) -> np.ndarray:
        """pack -> unpack, back at the sender's dtype: the ground truth
        that ``cast`` must match bit-for-bit."""
        arr = np.asarray(arr)
        flat = self.unpack(self.pack(arr), arr.size).astype(arr.dtype)
        return flat.reshape(arr.shape)


def quantize_gsum(partials, dtype) -> Optional[List[float]]:
    """One rank-contribution trip through the gsum wire dtype.

    Returns the quantized partials (as floats) when the wire narrows
    them, or None when the wire is float64 (no cast, keep the caller's
    bit-exact path).
    """
    dtype = np.dtype(dtype)
    if dtype == np.float64:
        return None
    return [float(np.asarray(p).astype(dtype)) for p in np.atleast_1d(partials)]


class CastingOperator:
    """Adapter keeping a CG solve's working arrays at one dtype.

    The elliptic operators hold float64 metric coefficients, so applying
    them to a float32 vector silently promotes the result back to
    float64.  Wrapping the operator casts every output back down, which
    models "CG internals at float32" honestly: storage and updates in
    float32, dot products still accumulated in float64 (the paper's
    bit-exact global sums are scalar reductions).
    """

    def __init__(self, operator, dtype) -> None:
        self._operator = operator
        self.dtype = np.dtype(dtype)

    @property
    def decomp(self):
        return self._operator.decomp

    def _cast(self, out):
        if isinstance(out, np.ndarray):
            return out.astype(self.dtype, copy=False)
        return [a.astype(self.dtype, copy=False) for a in out]

    def apply_stacked(self, x, flops):
        """Stacked-tile A x, cast back to the working dtype."""
        return self._cast(self._operator.apply_stacked(x, flops))

    def precondition_stacked(self, r, flops):
        """Stacked-tile M^-1 r, cast back to the working dtype."""
        return self._cast(self._operator.precondition_stacked(r, flops))
