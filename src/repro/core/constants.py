"""Every number the paper's evaluation reports, in one place.

These are the *reference* values; the reproduction computes its own
from the simulated hardware and counted kernels, and the benchmarks
print both side by side (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.perf_model import DSPhaseParams, PSPhaseParams

US = 1e-6
MINUTE = 60.0


# -- Fig. 11: performance-model parameters at 2.8125 degrees ---------------


ATM_PS_PARAMS = PSPhaseParams(nps=781, nxyz=5120, texchxyz=1640 * US, fps=50e6)
OCN_PS_PARAMS = PSPhaseParams(nps=751, nxyz=15360, texchxyz=4573 * US, fps=50e6)
DS_PARAMS = DSPhaseParams(nds=36, nxy=1024, tgsum=13.5 * US, texchxy=115 * US, fds=60e6)


# -- Fig. 12: stand-alone interconnect benchmark values --------------------

#: name -> (tgsum, texchxy, texchxyz) in seconds, plus the paper's
#: resulting Pfpp values (MFlop/s) for checking.
FIG12_PAPER = {
    "Fast Ethernet": {
        "tgsum": 942 * US,
        "texchxy": 10008 * US,
        "texchxyz": 100000 * US,
        "pfpp_ps": 8.0e6,
        "pfpp_ds": 1.6e6,
    },
    "Gigabit Ethernet": {
        "tgsum": 1193 * US,
        "texchxy": 1789 * US,
        "texchxyz": 5742 * US,
        "pfpp_ps": 139e6,
        "pfpp_ds": 6.2e6,
    },
    "Arctic": {
        "tgsum": 13.5 * US,
        "texchxy": 115 * US,
        "texchxyz": 1640 * US,
        "pfpp_ps": 487e6,
        "pfpp_ds": 143e6,
    },
}

#: Section 5.4: to reach Pfpp,ds of 60 MFlop/s, tgsum + texchxy must not
#: exceed this budget.
DS_COMM_BUDGET_PAPER = 306 * US


# -- Fig. 2: LogP of the PIO mechanism --------------------------------------

#: payload bytes -> (Os, Or, half round trip, network latency), seconds.
FIG2_PAPER = {
    8: (0.4 * US, 2.0 * US, 3.7 * US, 1.3 * US),
    64: (1.7 * US, 8.6 * US, 11.7 * US, 1.4 * US),
}


# -- Section 5.3: validation run --------------------------------------------


@dataclass(frozen=True)
class ValidationRef:
    """The one-year atmospheric simulation of Section 5.3."""

    nt: int = 77760  # time steps in one model year
    ni: int = 60  # mean solver iterations per step
    predicted_tcomm: float = 30.1 * MINUTE
    predicted_tcomp: float = 151.0 * MINUTE
    observed_wallclock: float = 183.0 * MINUTE


VALIDATION = ValidationRef()


# -- Section 5.1: coupled production throughput ------------------------------

#: Sustained combined rate of both isomorphs, flop/s (1.6-1.8 GFlop/s).
COUPLED_SUSTAINED_RANGE = (1.6e9, 1.8e9)

#: Fig. 10 Hyades rows, flop/s.
HYADES_1CPU_SUSTAINED = 0.054e9
HYADES_16CPU_SUSTAINED = 0.8e9
