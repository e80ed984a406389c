"""Section 5.3 — validation of the performance model.

Regenerates the one-year atmospheric simulation arithmetic (Nt = 77760,
Ni = 60): predicted Tcomm + Tcomp vs the observed 183 minutes, and an
independent check where the "observation" is a timed run of the real
GCM on the lockstep runtime.
"""

import pytest

from repro.core.validation import observed_from_simulation, section53_validation

from _tables import emit, format_table

MIN = 60.0


def test_bench_section53_arithmetic():
    rep = section53_validation()
    emit(
        "sec53_validation",
        format_table(
            "Section 5.3 - one-year atmosphere run (Nt=77760, Ni=60)",
            ["quantity", "reproduction", "paper"],
            [
                ["Tcomm (min)", f"{rep.tcomm / MIN:.1f}", "30.1"],
                ["Tcomp (min)", f"{rep.tcomp / MIN:.1f}", "151"],
                ["predicted total (min)", f"{rep.predicted_total / MIN:.0f}", "181"],
                ["observed wall-clock (min)", f"{rep.observed / MIN:.0f}", "183"],
                ["model error", f"{rep.relative_error * 100:+.1f}%", "~-1%"],
            ],
        ),
    )
    assert rep.predicted_total == pytest.approx(181 * MIN, rel=0.02)
    assert abs(rep.relative_error) < 0.02


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
