"""Section 5.3: validating the performance model.

The paper predicts a one-year atmospheric simulation (Nt = 77760,
Ni = 60) at Tcomm = 30.1 min + Tcomp = 151 min = 181 min, against an
observed 183 minutes of wall-clock — agreement within ~1 %.

Here the same arithmetic runs over either the paper's Fig. 11 parameters
or parameters derived from our simulated hardware and counted kernels,
and the "observed" column can come from a timed run of the GCM on the
lockstep runtime (scaled up from a short integration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS, VALIDATION
from repro.core.perf_model import PerformanceModel


@dataclass(frozen=True)
class ValidationReport:
    """Predicted vs observed for a run of Nt steps."""

    nt: int
    ni: float
    tcomm: float
    tcomp: float
    predicted_total: float
    observed: Optional[float] = None

    @property
    def relative_error(self) -> Optional[float]:
        if self.observed is None or self.observed == 0:
            return None
        return (self.predicted_total - self.observed) / self.observed


def section53_validation(
    nt: int = VALIDATION.nt,
    ni: float = VALIDATION.ni,
    model: Optional[PerformanceModel] = None,
    observed: Optional[float] = VALIDATION.observed_wallclock,
) -> ValidationReport:
    """Run the Section 5.3 arithmetic (defaults: the paper's inputs)."""
    if model is None:
        model = PerformanceModel(
            ps=ATM_PS_PARAMS,
            ds=DS_PARAMS,
        )
    tcomm = model.tcomm(nt, ni)
    tcomp = model.tcomp(nt, ni)
    return ValidationReport(
        nt=nt,
        ni=ni,
        tcomm=tcomm,
        tcomp=tcomp,
        predicted_total=tcomm + tcomp,
        observed=observed,
    )


def observed_from_simulation(gcm_model, n_steps: int, nt: int) -> float:
    """'Observe' a wall-clock by running ``n_steps`` of the real GCM on
    the lockstep runtime and scaling the virtual elapsed time to ``nt``
    steps (skipping the first step, whose forward-Euler start and solver
    cold-start are unrepresentative)."""
    gcm_model.step()  # discard spin-up step
    t0 = gcm_model.runtime.elapsed
    for _ in range(n_steps):
        gcm_model.step()
    per_step = (gcm_model.runtime.elapsed - t0) / n_steps
    return per_step * nt
