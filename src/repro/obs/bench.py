"""Schema'd benchmark records: the repo's virtual-time ledger.

Every ``benchmarks/bench_*.py`` with a machine-readable result routes it
through :func:`write_bench`, so each run leaves a ``BENCH_<name>.json``
that validates against :data:`repro.obs.schema.BENCH_SCHEMA`.  A record
holds paper / virtual-time quantities only — equal inputs serialise to
identical bytes, which is what lets ``scripts/ci.sh`` regenerate
``benchmarks/out/`` and ``git diff`` it.  Host time is ``perf/``'s
business (``perf/README.md``).  Two fields are uniform across
benchmarks:

* ``virtual_time_s`` — simulated seconds, when the benchmark runs the
  DES or BSP clock (null for pure-model benchmarks);
* ``model_error`` — named relative errors of the reproduction against
  the paper's measured values or the analytic model.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

from repro.obs.schema import (
    BENCH_SCHEMA_VERSION,
    assert_valid,
    validate_bench,
)


def bench_record(
    name: str,
    virtual_time_s: Optional[float] = None,
    model_error: Optional[dict] = None,
    data: Optional[dict] = None,
    units: Optional[dict] = None,
) -> dict:
    """Build and validate one benchmark record.

    Raises ``ValueError`` listing every schema violation, so a benchmark
    that emits garbage fails at emit time, not in CI's consumer.
    """
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "benchmark",
        "name": name,
        "virtual_time_s": None if virtual_time_s is None else float(virtual_time_s),
        "model_error": model_error,
        "data": data or {},
    }
    if units:
        record["units"] = units
    assert_valid(validate_bench(record), f"benchmark record {name!r}")
    return record


def write_bench(out_dir: Union[str, pathlib.Path], name: str, **kwargs) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    record = bench_record(name, **kwargs)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
