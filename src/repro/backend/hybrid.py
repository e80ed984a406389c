"""The hybrid tier: analytic steady-state, DES under contest.

A long climate integration is mostly steady-state — identical halo
shapes, identical collectives, window after window — which is exactly
where the analytic tier is cheap and inside the cross-validation band.
The windows that *aren't* steady-state (injected faults, crash
recovery, contested fabric) are where closed-form costs are least
trustworthy and the packet simulation earns its keep.

:class:`HybridBackend` holds one backend of each fidelity and routes
every cost query to the tier chosen for the current window:
:meth:`begin_window` is called at each coupling-window boundary with
``faulted=True`` when the window carries injected faults (the coupled
GCM wires this from its fault plan; callers may also attach an explicit
``fault_windows`` set and pass the window index).  ``tier_stats()``
reports how many windows and queries each fidelity served.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.network.costmodel import CommCostModel

from .analytic import AnalyticBackend
from .base import CommBackend
from .des import DESBackend


class HybridBackend(CommBackend):
    """Window-granular fidelity switch over an analytic and a DES tier."""

    name = "hybrid"

    def __init__(
        self,
        fault_windows: Iterable[int] = (),
        analytic: Optional[CommBackend] = None,
        des: Optional[CommBackend] = None,
    ) -> None:
        self.analytic = analytic or AnalyticBackend()
        self.des = des or DESBackend(model=self.analytic.model)
        #: Window indices forced onto the DES tier even without
        #: ``faulted=True`` (e.g. a known-contested spin-up window).
        self.fault_windows = set(int(w) for w in fault_windows)
        self.window_index: Optional[int] = None
        self._active: CommBackend = self.analytic
        self._windows = {"analytic": 0, "des": 0}
        self._queries = {"analytic": 0, "des": 0}

    @property
    def model(self) -> CommCostModel:  # type: ignore[override]
        return self.analytic.model

    @property
    def tier(self) -> str:
        return self._active.name

    def set_degradation(self, schedule) -> None:
        """Attach the schedule to both children (they compose the shared
        penalty) and keep a reference for window routing."""
        self.degradation = schedule
        self.analytic.set_degradation(schedule)
        self.des.set_degradation(schedule)

    def begin_window(
        self,
        index: Optional[int] = None,
        faulted: bool = False,
        degraded: bool = False,
    ) -> None:
        """Pick the window's fidelity: DES when ``faulted``/``degraded``
        or listed in :attr:`fault_windows`, analytic otherwise — a
        degraded window is contested the same way a faulted one is."""
        if index is None:
            index = -1 if self.window_index is None else self.window_index + 1
        self.window_index = index
        contested = faulted or degraded or index in self.fault_windows
        self._active = self.des if contested else self.analytic
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
        """Adds tier statistics and the fault-window set."""
        d = super().describe()
        d.update(self.tier_stats())
        d["fault_windows"] = sorted(self.fault_windows)
        return d
