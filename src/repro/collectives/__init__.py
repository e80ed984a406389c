"""repro.collectives — autotuned collective communications for Arctic.

Generalises the paper's two hand-built primitives (halo exchange,
butterfly global sum — Sections 4.1/4.2) into a reusable layer:

* :mod:`~repro.collectives.schedules` — declarative schedules for
  allreduce (butterfly / ring / reduce-scatter+allgather / tree),
  broadcast, allgather, reduce_scatter, alltoall and barrier: the wire
  (per-round ``(src, dst, bytes)`` index arrays, ``Schedule.columns``)
  is what ``build()`` makes; the items each message carries
  (``Schedule.rounds``) are derived when a data engine asks;
* :mod:`~repro.collectives.cost` — analytic costs from the calibrated
  LogP/Arctic models;
* :mod:`~repro.collectives.des_exec` — packet-level DES execution
  (timing path + reliable, fault-tolerant data path);
* :mod:`~repro.collectives.tuner` — the :class:`Autotuner` that picks
  the winning algorithm per (rank count, message size, priority class)
  and cross-validates against DES runs;
* :mod:`~repro.collectives.semantics` — the canonical-order data
  engine guaranteeing bitwise-identical reductions everywhere.
"""

from .cost import cost_table, schedule_cost
from .des_exec import des_run_schedule, des_time_schedule
from .schedules import (
    BUILDERS,
    OPS,
    Schedule,
    Send,
    build,
    candidates,
)
from .semantics import reference_result, run_schedule
from .tuner import Autotuner, CollectivePlan, default_tuner

__all__ = [
    "Autotuner",
    "BUILDERS",
    "CollectivePlan",
    "OPS",
    "Schedule",
    "Send",
    "build",
    "candidates",
    "cost_table",
    "default_tuner",
    "des_run_schedule",
    "des_time_schedule",
    "reference_result",
    "run_schedule",
    "schedule_cost",
]
