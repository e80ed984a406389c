"""Fidelity-switchable communication backends (see :mod:`.base`).

>>> from repro.backend import resolve_backend
>>> resolve_backend("analytic").gsum_time(16)  # doctest: +SKIP
"""

from .analytic import AnalyticBackend
from .base import BACKEND_NAMES, CommBackend, resolve_backend
from .crossval import run_crossval
from .des import DESBackend
from .hybrid import HybridBackend
from .sweep import large_sweep, sweep_point

__all__ = [
    "AnalyticBackend",
    "BACKEND_NAMES",
    "CommBackend",
    "DESBackend",
    "HybridBackend",
    "large_sweep",
    "resolve_backend",
    "run_crossval",
    "sweep_point",
]
