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
from typing import Iterable, Sequence

from repro.obs.bench import write_bench

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: ``emit_bench(name, virtual_time_s=, model_error=, data=, units=)``
#: writes the schema'd ``benchmarks/out/BENCH_<name>.json``.
emit_bench = functools.partial(write_bench, OUT_DIR)


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def emit(name: str, text: str) -> None:
    """Print the table and persist it under benchmarks/out/."""
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text)


def us(seconds: float, digits: int = 1) -> str:
    return f"{seconds * 1e6:.{digits}f}"


def mbs(bytes_per_s: float, digits: int = 1) -> str:
    return f"{bytes_per_s / 1e6:.{digits}f}"


def mflops(flops_per_s: float, digits: int = 1) -> str:
    return f"{flops_per_s / 1e6:.{digits}f}"
