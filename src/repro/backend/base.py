"""The :class:`CommBackend` contract and ``backend=`` resolution.

One runtime API, three fidelities.  Virtual time is charged by
:class:`~repro.parallel.runtime.LockstepRuntime` alone; it, the
collectives :class:`~repro.collectives.Autotuner`, the coupled GCM and
the ensemble service take a single ``backend=`` argument that accepts
either a tier name or a :class:`CommBackend` instance:

* ``"des"`` — packet-exact: every quoted time is *measured* on the
  discrete-event Arctic/StarT-X cluster (memoized per message shape);
* ``"analytic"`` — closed-form LogP/Arctic costs with the collectives
  autotuner's schedule-cost global sums, calibrated to track the DES
  within the cross-validation band (≤5 %, see
  :mod:`repro.backend.crossval`);
* ``"hybrid"`` — analytic during steady-state windows, DES during
  windows a degradation schedule overlaps (see
  :meth:`CommBackend.begin_window`).

Timing never feeds back into the numerics — field data moves through
the same deterministic exchange/reduction code under every tier — so
GCM state is bit-exact across backends *by construction*; the
cross-validation gate asserts it anyway.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.network.costmodel import CommCostModel

#: Tier names accepted wherever ``backend=`` takes a string.
BACKEND_NAMES = ("des", "analytic", "hybrid")


class CommBackend(abc.ABC):
    """Quotes communication costs (seconds) for the BSP runtime.

    A backend is a *pure timing oracle*: it never touches field data.
    All sizes are bytes; ``n_nodes`` counts fabric endpoints (SMP
    masters in mix-mode), not ranks.
    """

    #: Tier name ("des" / "analytic" / "hybrid").
    name: str = "base"

    #: The analytic parameter set the tier is anchored to (bandwidths,
    #: overheads, mix-mode factors).  Always present — even the DES tier
    #: carries one, for the pack/relay terms the packet simulation does
    #: not model.
    model: CommCostModel

    #: Attached :class:`~repro.faults.degrade.DegradationSchedule`
    #: (``None`` = healthy machine).  Every tier composes the SAME
    #: closed-form penalty from it on top of its own clean quote, so
    #: des/analytic/hybrid price a degraded node consistently.
    degradation = None

    # ---- degradation ----------------------------------------------------

    def set_degradation(self, schedule) -> None:
        """Attach (or clear, with ``None``) a degradation schedule."""
        self.degradation = schedule

    def _exchange_penalty(
        self,
        edge_bytes: Sequence[int],
        node: Optional[int],
        now: Optional[float],
    ) -> float:
        """Shared degraded-exchange surcharge (0 when healthy or when the
        caller didn't say *when* the exchange happens)."""
        d = self.degradation
        if d is None or now is None:
            return 0.0
        return d.exchange_penalty(node, now, edge_bytes, self.model.bandwidth)

    def _collective_penalty(
        self, n_nodes: int, nbytes: float, now: Optional[float]
    ) -> float:
        """Shared degraded-collective surcharge (worst endpoint gates
        every butterfly round)."""
        d = self.degradation
        if d is None or now is None:
            return 0.0
        return d.gsum_penalty(now, n_nodes, nbytes, self.model.bandwidth)

    # ---- costs ----------------------------------------------------------

    @abc.abstractmethod
    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Seconds for one rank's halo exchange (``edge_bytes[i]`` is the
        message size traded with neighbour ``i``; zero entries are walls).

        ``node``/``now`` locate the exchange on the machine and in
        virtual time so an attached degradation schedule can price it;
        omitting them prices the healthy fabric.
        """

    @abc.abstractmethod
    def gsum_time(
        self,
        n_nodes: int,
        nbytes: int = 8,
        smp: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Seconds for one N-way all-reduce of an ``nbytes`` payload;
        ``smp`` adds the intra-SMP combine of the 2xN mix-mode path.
        ``now`` lets an attached degradation schedule price the window."""

    def barrier_time(self, n_nodes: int, now: Optional[float] = None) -> float:
        """One N-way barrier: the paper's is a dataless (8-byte) global sum."""
        return self.gsum_time(n_nodes, 8, now=now)

    # ---- window protocol -------------------------------------------------

    def begin_window(self, degraded: bool) -> None:
        """Hook called at each coupling-window boundary.

        Fixed-fidelity tiers ignore it; the hybrid tier answers a window
        the attached degradation schedule overlaps (``degraded``) at DES
        fidelity.
        """

    @property
    def tier(self) -> str:
        """The fidelity answering queries *right now* (differs from
        :attr:`name` only for window-switching tiers like hybrid)."""
        return self.name

    # ---- reporting -------------------------------------------------------

    def describe(self) -> dict:
        """Machine-readable self-description (benchmarks embed this)."""
        return {"backend": self.name, "model": self.model.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} over {self.model.name!r}>"


def resolve_backend(spec=None) -> CommBackend:
    """Resolve a ``backend=`` argument to a :class:`CommBackend`.

    ``spec`` may be a :class:`CommBackend` instance (returned as-is), a
    tier name from :data:`BACKEND_NAMES`, or ``None`` — the measured-table
    analytic default that reproduces the paper's Fig. 8/11/12 numbers
    (18.2 us at N=16).  A caller that wants another interconnect or tuner
    constructs the backend it means and passes the instance.
    """
    if isinstance(spec, CommBackend):
        return spec
    from repro.backend.analytic import AnalyticBackend
    from repro.backend.des import DESBackend
    from repro.backend.hybrid import HybridBackend

    if spec is None:
        return AnalyticBackend(calibrated=False)
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a tier name or CommBackend, got {type(spec).__name__}"
        )
    name = spec.lower()
    if name == "analytic":
        return AnalyticBackend()
    if name == "des":
        return DESBackend()
    if name == "hybrid":
        return HybridBackend()
    raise ValueError(f"unknown backend {spec!r}; choose from {BACKEND_NAMES}")
