"""Mixed-precision tuning: per-field, per-site float32/float64 assignment.

The subsystem has five parts:

* :mod:`repro.precision.config` — :class:`PrecisionConfig`, the
  JSON-round-trippable field x site assignment with the ``all64`` /
  ``all32`` / ``wire32`` presets;
* :mod:`repro.precision.codec` — the global-sum contribution cast and
  the CG :class:`CastingOperator`;
* :mod:`repro.precision.gates` — accuracy gates (SST / kinetic energy /
  overturning relative errors vs the float64 baseline, plus hard
  finiteness and solver-convergence checks) over a reference coupled
  run;
* :mod:`repro.precision.search` — the Precimonious-style delta-debugging
  driver (start all-float32, hierarchically bisect failing field/site
  groups back to float64), with candidates runnable in parallel as
  ensemble-service jobs;
* :mod:`repro.precision.report` — table/report helpers for the CLI and
  ``repro report``.

Only the dependency-light config and codec are imported eagerly (the
model layer imports them); gates/search/report import the model layer
and load on demand.
"""

from repro.precision.codec import CastingOperator, quantize_gsum
from repro.precision.config import (
    PRECISION_FIELDS,
    SITES,
    PrecisionConfig,
    resolve_precision,
)

__all__ = [
    "CastingOperator",
    "PRECISION_FIELDS",
    "PrecisionConfig",
    "SITES",
    "quantize_gsum",
    "resolve_precision",
]
