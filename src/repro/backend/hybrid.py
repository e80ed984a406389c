"""The hybrid tier: analytic steady-state, DES under contest.

A long climate integration is mostly steady-state — identical halo
shapes, identical collectives, window after window — which is exactly
where the analytic tier is cheap and inside the cross-validation band.
The windows a performance fault degrades are where closed-form costs
are least trustworthy and the packet simulation earns its keep.

:class:`HybridBackend` holds one backend of each fidelity and routes
every cost query to the tier chosen for the current window:
:meth:`begin_window` is called at each coupling-window boundary with
``degraded=True`` when the attached
:class:`~repro.faults.degrade.DegradationSchedule` overlaps the window
(the coupled GCM and the fault campaign ask
:meth:`~repro.faults.degrade.DegradationSchedule.overlaps`).
``tier_stats()`` reports how many windows and queries each fidelity
served.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.network.costmodel import CommCostModel

from .analytic import AnalyticBackend
from .base import CommBackend
from .des import DESBackend


class HybridBackend(CommBackend):
    """Window-granular fidelity switch over an analytic and a DES tier."""

    name = "hybrid"

    def __init__(self) -> None:
        self.analytic = AnalyticBackend()
        self.des = DESBackend(model=self.analytic.model)
        self._active: CommBackend = self.analytic
        self._windows = {"analytic": 0, "des": 0}
        self._queries = {"analytic": 0, "des": 0}

    @property
    def model(self) -> CommCostModel:  # type: ignore[override]
        return self.analytic.model

    def set_degradation(self, schedule) -> None:
        """Attach the schedule to both children (they compose the shared
        penalty) and keep a reference for window routing."""
        self.degradation = schedule
        self.analytic.set_degradation(schedule)
        self.des.set_degradation(schedule)

    def begin_window(self, degraded: bool) -> None:
        """Pick the window's fidelity: DES when ``degraded``, analytic
        otherwise."""
        self._active = self.des if degraded else self.analytic
        self._windows[self._active.name] += 1

    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Active tier's exchange cost."""
        self._queries[self._active.name] += 1
        return self._active.exchange_time(
            edge_bytes, mixmode=mixmode, n_ranks=n_ranks, node=node, now=now
        )

    def gsum_time(
        self,
        n_nodes: int,
        nbytes: int = 8,
        smp: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Active tier's global-sum cost."""
        self._queries[self._active.name] += 1
        return self._active.gsum_time(n_nodes, nbytes, smp=smp, now=now)

    def barrier_time(self, n_nodes: int, now: Optional[float] = None) -> float:
        """Active tier's barrier cost."""
        self._queries[self._active.name] += 1
        return self._active.barrier_time(n_nodes, now=now)

    def tier_stats(self) -> dict:
        """Windows and cost queries served by each fidelity."""
        return {
            "active": self._active.name,
            "windows": dict(self._windows),
            "queries": dict(self._queries),
        }

    def describe(self) -> dict:
        """Adds tier statistics."""
        d = super().describe()
        d.update(self.tier_stats())
        return d
