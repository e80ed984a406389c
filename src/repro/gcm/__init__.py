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
  exchange per step (the simulated machine computes and is charged for
  the whole halo; the host computes the two rings the interiors read).
* **DS (diagnostic step)** — 2-D: the elliptic surface-pressure equation
  (eq. 3) solved by preconditioned conjugate gradients; per iteration
  one halo-1 exchange of two fields and two global sums are charged (the
  host fills only the search direction's halo; each sum is one tree).

All kernels count their floating-point operations analytically; the
performance model divides those counts by the measured per-phase flop
rates exactly as the paper's eq. (5)/(8) do.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "atmosphere": ["atmosphere_model"],
    "ocean": ["ocean_model"],
    "coupled": ["coupled_model"],
})
