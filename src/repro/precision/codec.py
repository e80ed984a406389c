"""Precision casts the model applies to a payload or a working array.

A payload sent at float32 quantizes on the wire.  The literal wire
format is :class:`repro.collectives.semantics.ItemStore`'s big-endian
packing; the halo exchange models the same trip as one cast down and
back up (:func:`repro.parallel.exchange.exchange_halos`), and a property
test pins the two bit-equal.  This module holds the other two casts:
:func:`quantize_gsum` for one global sum's rank contributions and
:class:`CastingOperator` for the CG solver's working arrays.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


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

    def apply_interior(self, p, flops):
        """Interior A p, cast back to the working dtype."""
        return self._operator.apply_interior(p, flops).astype(self.dtype, copy=False)

    def precondition_interior(self, r, flops):
        """Interior M^-1 r, cast back to the working dtype."""
        return self._operator.precondition_interior(r, flops).astype(self.dtype, copy=False)
