"""Fig. 2 — LogP characteristics of PIO message passing.

Regenerates the table (Os, Or, Tround-trip/2, Lnetwork for 8-byte and
64-byte payloads) by ping-pong measurement on the simulated cluster,
alongside the paper's measured values.
"""

import pytest

from repro.core.constants import FIG2_PAPER
from repro.core.logp import fig2_table, measure_logp

from _tables import emit, emit_bench, format_table, us


@pytest.mark.parametrize("size", [8, 64])
def test_bench_logp_ping_pong(size):
    """Benchmark the DES ping-pong measurement itself."""
    lp = measure_logp(size)
    p_os, p_or, p_half, p_lat = FIG2_PAPER[size]
    assert lp.os_ == pytest.approx(p_os, rel=0.11)
    assert lp.or_ == pytest.approx(p_or, rel=0.08)
    assert lp.half_rtt == pytest.approx(p_half, rel=0.06)


def test_bench_fig2_table():
    rows = fig2_table(measured=True)
    table_rows = []
    for r in rows:
        table_rows.append(
            [
                r["payload_bytes"],
                f"{us(r['os'], 2)} ({us(r['paper_os'], 1)})",
                f"{us(r['or'], 2)} ({us(r['paper_or'], 1)})",
                f"{us(r['half_rtt'], 2)} ({us(r['paper_half_rtt'], 1)})",
                f"{us(r['latency'], 2)} ({us(r['paper_latency'], 1)})",
            ]
        )
    emit(
        "fig02_logp",
        format_table(
            "Fig. 2 - LogP of PIO message passing: measured (paper), usec",
            ["size (B)", "Os", "Or", "Trt/2", "Lnet"],
            table_rows,
        ),
    )
    assert len(rows) == 2
    emit_bench(
        "fig02_logp",
        virtual_time_s=max(r["half_rtt"] for r in rows),
        model_error={
            f"{q}_{r['payload_bytes']}B": r[q] / r[f"paper_{q}"] - 1.0
            for r in rows
            for q in ("os", "or", "half_rtt")
        },
        data={
            f"{q}_{r['payload_bytes']}B_us": r[q] * 1e6
            for r in rows
            for q in ("os", "or", "half_rtt", "latency")
        },
        units={"virtual_time_s": "worst half round-trip, DES seconds"},
    )
