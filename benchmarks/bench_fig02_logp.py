"""Fig. 2 — LogP characteristics of PIO message passing.

Writes the table (Os, Or, Tround-trip/2, Lnetwork for 8-byte and
64-byte payloads, ping-pong measured on the simulated cluster beside the
paper's values) as ``repro report fig2`` builds it.
"""

import pytest

from repro.core.report import SECTIONS

from _tables import emit, emit_bench

QUANTITIES = ("os", "or", "half_rtt")


@pytest.fixture(scope="module")
def section():
    return SECTIONS["fig2"]()


@pytest.mark.parametrize("size", [8, 64])
def test_bench_logp_ping_pong(section, size):
    """The DES ping-pong measurement against the paper's."""
    ours, paper = section.values, section.paper
    assert ours[size, "os"] == pytest.approx(paper[size, "os"], rel=0.11)
    assert ours[size, "or"] == pytest.approx(paper[size, "or"], rel=0.08)
    assert ours[size, "half_rtt"] == pytest.approx(paper[size, "half_rtt"], rel=0.06)


def test_bench_fig2_table(section):
    emit("fig02_logp", section.render())
    ours, paper = section.values, section.paper
    assert len(section.rows) == 2
    emit_bench(
        "fig02_logp",
        virtual_time_s=max(ours[size, "half_rtt"] for size in (8, 64)),
        model_error={
            f"{q}_{size}B": ours[size, q] / paper[size, q] - 1.0
            for size in (8, 64)
            for q in QUANTITIES
        },
        data={
            f"{q}_{size}B_us": ours[size, q] * 1e6
            for size in (8, 64)
            for q in QUANTITIES + ("latency",)
        },
        units={"virtual_time_s": "worst half round-trip, DES seconds"},
    )
