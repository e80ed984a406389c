"""Fig. 7 — VI-mode transfer bandwidth as a function of block size.

Writes the full curve (4 B to 128 KB: one VI transfer per block size on
the simulated hardware beside the analytic ``bw(s) = s / (overhead +
s / bandwidth)``, and the same two constants fitted to the DES points)
as ``repro report fig7`` builds it.
"""

import pytest

from repro.core.report import SECTIONS
from repro.network.costmodel import arctic_cost_model

from _tables import emit

#: The x-axis of Fig. 7 (bytes).
BLOCK_SIZES = [2 ** k for k in range(2, 18)]


@pytest.fixture(scope="module")
def section():
    return SECTIONS["fig7"]()


def test_bench_single_transfer_64k(section):
    ours = section.values
    assert ours[65536, "des"] == pytest.approx(ours[65536, "model"], rel=0.05)


def test_bench_fig7_curve(section):
    emit("fig07_bandwidth", section.render())
    ours, paper = section.values, section.paper
    assert ours["fit_overhead"] == pytest.approx(paper["fit_overhead"], rel=0.05)
    assert ours["fit_bandwidth"] == pytest.approx(paper["fit_bandwidth"], rel=0.02)
    # paper's quoted points
    assert ours[1024, "model"] == pytest.approx(56.8e6, rel=0.02)
    peak = paper["fit_bandwidth"]
    assert arctic_cost_model().perceived_bandwidth(9 * 1024) >= 0.9 * peak
    # DES tracks the model across the sweep (VI blocks: 64 B and up)
    for s in BLOCK_SIZES[4:]:
        assert ours[s, "des"] == pytest.approx(ours[s, "model"], rel=0.10)
    # curve is monotone and saturates near the peak
    analytic_curve = [ours[s, "model"] for s in BLOCK_SIZES]
    assert analytic_curve == sorted(analytic_curve)
    assert analytic_curve[-1] > 0.95 * peak
