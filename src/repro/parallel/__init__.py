"""Mapping the GCM onto the cluster (paper Section 4).

The computational domain is decomposed horizontally into tiles with
halo ("overlap") regions; tiles are the unit of computation and
parallelism (Fig. 5).  Two performance-critical primitives communicate
data amongst tiles:

* **exchange** — brings halo regions into a consistent state
  (:mod:`repro.parallel.exchange`),
* **global sum** — butterfly all-reduce of one scalar per tile
  (:mod:`repro.parallel.globalsum`, Fig. 8).

:mod:`repro.parallel.runtime` provides the lockstep BSP runtime that
executes an SPMD program over simulated ranks, charging virtual time for
compute (flops / measured flop rate) and communication (interconnect
cost models), while performing the *real* data movement so numerical
results are genuine.  :mod:`repro.parallel.des_collectives` holds the
packet-level VI point-to-point microbenchmarks (Fig. 7 bandwidth, the
pairwise exchange leg); packet-level global sums run as schedules
through :mod:`repro.collectives.des_exec`.
"""

from repro.parallel.tiling import Decomposition
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.globalsum import butterfly_global_sum
from repro.parallel.runtime import LockstepRuntime, StragglerMitigator

__all__ = [
    "Decomposition",
    "HaloExchanger",
    "exchange_halos",
    "butterfly_global_sum",
    "LockstepRuntime",
    "StragglerMitigator",
]
