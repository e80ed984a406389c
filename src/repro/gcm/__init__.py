"""The MIT General Circulation Model kernel (paper Section 3).

A finite-volume, incompressible Navier-Stokes kernel on an Arakawa
C-grid that steps forward the hydrostatic primitive equations, exploiting
the isomorphism between the ocean (Boussinesq, linear EOS) and the
atmosphere (ideal-gas/potential-temperature isomorph) so both components
run the same code (Section 3, refs [14, 20, 21]).

Each time step has two blocks (Fig. 6):

* **PS (prognostic step)** — 3-D: G-term evaluation (advection,
  Coriolis, metric, dissipation, forcing), hydrostatic pressure from
  buoyancy, Adams-Bashforth extrapolation, provisional velocity.
  Local 3x3 stencils + overcomputation: exactly one 5-field halo-3
  exchange per step.
* **DS (diagnostic step)** — 2-D: the elliptic surface-pressure equation
  (eq. 3) solved by preconditioned conjugate gradients; per iteration one
  halo-1 exchange of two fields (search direction and residual, held as
  one stack) and two global sums (each one reduction tree).

All kernels count their floating-point operations analytically; the
performance model divides those counts by the measured per-phase flop
rates exactly as the paper's eq. (5)/(8) do.
"""

from repro.gcm.constants import EARTH, PhysicalConstants
from repro.gcm.grid import Grid, GridParams
from repro.gcm.eos import LinearEOS, IdealGasEOS
from repro.gcm.state import ModelState
from repro.gcm.timestepper import Model, ModelConfig, StepStats
from repro.gcm.atmosphere import atmosphere_model
from repro.gcm.ocean import ocean_model
from repro.gcm.coupled import CoupledModel, coupled_model

__all__ = [
    "EARTH",
    "PhysicalConstants",
    "Grid",
    "GridParams",
    "LinearEOS",
    "IdealGasEOS",
    "ModelState",
    "Model",
    "ModelConfig",
    "StepStats",
    "atmosphere_model",
    "ocean_model",
    "CoupledModel",
    "coupled_model",
]
