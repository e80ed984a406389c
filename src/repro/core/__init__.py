"""The paper's primary analytical contributions (Sections 5.2-5.4).

* :mod:`repro.core.constants` — every calibration number the paper
  reports (Figs. 2, 10, 11, 12; Section 5.3) in one place.
* :mod:`repro.core.logp` — LogP characterization of the PIO mechanism
  (Fig. 2), analytic and measured on the simulated hardware.
* :mod:`repro.core.perf_model` — the performance model: eqs. (4)-(13).
* :mod:`repro.core.pfpp` — Potential Floating-Point Performance,
  eqs. (14)-(15), :func:`~repro.core.pfpp.comm_terms` (the one mapping
  from a configuration to its tgsum/texchxy/texchxyz) and the tables
  built on it.
* :mod:`repro.core.validation` — the Section 5.3 one-year-run check.
* :mod:`repro.core.sustained` — the Fig. 10 sustained-performance table.
"""

from repro.core.constants import (
    ATM_PS_PARAMS,
    OCN_PS_PARAMS,
    DS_PARAMS,
    FIG12_PAPER,
    VALIDATION,
)
from repro.core.logp import LogP, analytic_logp, measure_logp, fig2_table
from repro.core.perf_model import PSPhaseParams, DSPhaseParams, PerformanceModel
from repro.core.pfpp import (
    CommTerms,
    PfppRow,
    comm_terms,
    pfpp_ps,
    pfpp_ds,
    ds_comm_budget,
    fig12_table,
)
from repro.core.validation import ValidationReport, section53_validation
from repro.core.sustained import hyades_sustained, fig10_table

__all__ = [
    "ATM_PS_PARAMS",
    "OCN_PS_PARAMS",
    "DS_PARAMS",
    "FIG12_PAPER",
    "VALIDATION",
    "LogP",
    "analytic_logp",
    "measure_logp",
    "fig2_table",
    "PSPhaseParams",
    "DSPhaseParams",
    "PerformanceModel",
    "pfpp_ps",
    "pfpp_ds",
    "ds_comm_budget",
    "fig12_table",
    "comm_terms",
    "CommTerms",
    "PfppRow",
    "ValidationReport",
    "section53_validation",
    "hyades_sustained",
    "fig10_table",
]
