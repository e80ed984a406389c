"""Shared table formatting/saving for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and writes
it under ``benchmarks/out/`` (also echoed to stdout with ``pytest -s``).
Everything written there is a virtual-time / paper quantity, so the
directory is byte-deterministic: ``scripts/ci.sh`` regenerates it and
fails on ``git diff``.  Host time is measured by ``perf/``, not here.
"""

from __future__ import annotations

import functools
import pathlib

from repro.core.report import format_table, mega, us  # noqa: F401  (re-exported)
from repro.obs.bench import write_bench

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: ``emit_bench(name, virtual_time_s=, model_error=, data=, units=)``
#: writes the schema'd ``benchmarks/out/BENCH_<name>.json``.
emit_bench = functools.partial(write_bench, OUT_DIR)

mbs = mflops = mega


def emit(name: str, text: str) -> None:
    """Print the table and persist it under benchmarks/out/."""
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text)
