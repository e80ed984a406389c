"""``repro.obs`` — the observability layer: tracing, metrics, schemas.

Always importable, near-zero overhead when off:

* :mod:`repro.obs.trace` — DES tracing to Chrome trace-event JSON
  (``repro trace run.json``; open in chrome://tracing or Perfetto);
* :mod:`repro.obs.metrics` — per-phase PS/DS compute/exchange/gsum
  virtual-time and flop/byte accounting, cross-checked against the
  analytic interconnect cost models;
* :mod:`repro.obs.schema` — schemas + a dependency-free validator for
  benchmark records and traces;
* :mod:`repro.obs.bench` — the unified ``BENCH_<name>.json`` emitter.
"""

from repro.obs.bench import bench_record, write_bench
from repro.obs.metrics import (
    MetricsRecorder,
    PhaseTotals,
    phase_crosscheck,
)
from repro.obs.schema import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    validate,
    validate_bench,
    validate_chrome_trace,
)
from repro.obs.trace import Tracer, start, stop, tracing

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "MetricsRecorder",
    "PhaseTotals",
    "Tracer",
    "bench_record",
    "phase_crosscheck",
    "start",
    "stop",
    "tracing",
    "validate",
    "validate_bench",
    "validate_chrome_trace",
    "write_bench",
]
