"""Section 5.3 — validation of the performance model.

Writes the one-year atmospheric simulation arithmetic (predicted Tcomm
+ Tcomp vs the observed wall-clock) as ``repro report sec53`` builds it,
and an independent check where the "observation" is a timed run of the
real GCM on the lockstep runtime.
"""

import pytest

from repro.core.report import SECTIONS
from repro.core.validation import observed_from_simulation

from _tables import emit


def test_bench_section53_arithmetic():
    section = SECTIONS["sec53"]()
    emit("sec53_validation", section.render())
    ours, paper = section.values, section.paper
    assert ours["predicted_total"] == pytest.approx(paper["predicted_total"], rel=0.02)
    assert abs(ours["relative_error"]) < 0.02


def test_bench_model_vs_simulated_observation():
    """Both sides produced by the reproduction: analytic prediction vs
    the virtual wall-clock of an actual (small) GCM integration."""
    from repro.gcm.atmosphere import atmosphere_model

    m = atmosphere_model(nx=32, ny=16, nz=5, px=2, py=2, dt=300.0)
    obs = observed_from_simulation(m, n_steps=8, nt=100)
    # the scaled observation is a pure extrapolation of per-step cost;
    # sanity: positive minutes-scale number for 100 virtual steps
    assert obs > 0
    # accounting identity: elapsed == compute + comm + sync of the
    # critical-path rank, within float tolerance
    worst = max(range(m.runtime.n_ranks), key=lambda r: m.runtime.clocks[r])
    s = m.runtime.stats[worst]
    assert m.runtime.clocks[worst] == pytest.approx(
        s.compute_time + s.exchange_time + s.gsum_time + s.sync_time, rel=1e-9
    )
