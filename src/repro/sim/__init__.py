"""Discrete-event simulation kernel.

A minimal, deterministic event-driven simulator used to model the Hyades
cluster hardware (Arctic routers, StarT-X DMA engines, PCI buses).  The
design follows the classic process-interaction style: model components are
Python generators that ``yield`` *waitables* (timeouts, queue operations,
semaphore acquisitions) and are resumed by the :class:`Engine` when the
waited-for condition fires.

Determinism contract: events scheduled for the same virtual time fire in
FIFO scheduling order (a monotonically increasing sequence number breaks
ties), so simulations are exactly reproducible run-to-run.
"""

from repro.sim.engine import DeadlockError, Engine, Interrupt, SimTimeError
from repro.sim.process import AllOf, AnyOf
from repro.sim.resources import Store, PriorityStore, Resource, Signal

__all__ = [
    "DeadlockError",
    "Engine",
    "Interrupt",
    "SimTimeError",
    "AllOf",
    "AnyOf",
    "Store",
    "PriorityStore",
    "Resource",
    "Signal",
]
