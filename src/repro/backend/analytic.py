"""The analytic tier: closed-form LogP/Arctic costs, no packets.

Exchange costs come straight from
:meth:`repro.network.costmodel.CommCostModel.exchange_time` — the
first-principles composition that lands on the paper's measured Fig. 11
values.  Global sums — a barrier is a dataless one — come from the
collectives autotuner's per-rank schedule-cost evaluation
(:mod:`repro.collectives.cost`), whose
butterfly rounds are *derived from the same calibrated per-message
costs the DES charges* (``os(8 B) + GSUM_SW_COST + or(8 B) = 4.22 us``)
— which is what keeps this tier inside the ≤5 % cross-validation band
against the packet-level ground truth.

The tuned costs assume the StarT-X PIO small-message path, so they are
the default only for the default Arctic model (or an explicit
``tuner=``); any other ``model=`` quotes its own gsum fit (Fig. 12:
942 us at N=16 on Fast Ethernet).

With ``calibrated=False`` the tier quotes the *measured-table* gsum
latencies of :func:`~repro.network.costmodel.arctic_cost_model` (paper
Fig. 8: 18.2 us at N=16) — what ``backend=None`` resolves to, so the
paper's figures come out unchanged.  The measured tables sit ~7 % off
the DES (the real hardware carried overheads the simulation does not),
so the cross-validation gate runs the calibrated flavour.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.network.costmodel import CommCostModel, arctic_cost_model

from .base import CommBackend

#: Above this node count the calibrated tier stops *searching* schedules
#: (the tuner's ring candidate alone is O(N^2) sends — 33M objects at
#: N=4096) and scores the butterfly schedule directly, which is the
#: algorithm the search picks at every Hyades-scale N anyway and the one
#: whose schedule-cost matches the DES beacon-for-beacon.
TUNER_MAX_N = 128


class AnalyticBackend(CommBackend):
    """Closed-form costs; virtual time advances without simulating packets."""

    name = "analytic"

    def __init__(
        self,
        model: Optional[CommCostModel] = None,
        tuner=None,
        calibrated: bool = True,
    ) -> None:
        arctic = arctic_cost_model()
        self.model = model or arctic
        # the default tuner prices StarT-X PIO messages: right for the
        # Arctic model only, so any other model keeps its own gsum fit
        if tuner is None and calibrated and self.model == arctic:
            from repro.collectives.tuner import default_tuner

            tuner = default_tuner()
        #: Collectives autotuner answering gsum/barrier queries; ``None``
        #: when the model's own gsum fit / measured table is quoted.
        self.tuner = tuner
        self.calibrated = tuner is not None
        self._large_gsum: Dict[Tuple[int, int], float] = {}

    def _butterfly_time(self, n_nodes: int, nbytes: int) -> float:
        """Schedule-cost of the folded butterfly, memoized — the
        search-free large-N path (see :data:`TUNER_MAX_N`)."""
        key = (n_nodes, nbytes)
        t = self._large_gsum.get(key)
        if t is None:
            from repro.collectives import build, schedule_cost

            t = schedule_cost(build("allreduce", "butterfly", n_nodes, nbytes), self.model)
            self._large_gsum[key] = t
        return t

    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Closed-form exchange cost (Section 4.1 composition) plus the
        shared degradation surcharge when a schedule is attached."""
        t = self.model.exchange_time(edge_bytes, mixmode=mixmode, n_ranks=n_ranks)
        return t + self._exchange_penalty(edge_bytes, node, now)

    def gsum_time(
        self,
        n_nodes: int,
        nbytes: int = 8,
        smp: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Tuned schedule-cost gsum (calibrated) or the measured table."""
        if self.tuner is not None:
            if n_nodes > TUNER_MAX_N:
                t = self._butterfly_time(n_nodes, nbytes)
                t = t + self.model.smp_local_cost if smp else t
            else:
                t = self.tuner.allreduce_time(n_nodes, nbytes, smp=smp)
        else:
            t = self.model.gsum_time(n_nodes, smp=smp)
        return t + self._collective_penalty(n_nodes, nbytes, now)

    def describe(self) -> dict:
        """Adds the calibration flavour to the base description."""
        d = super().describe()
        d["calibrated"] = self.calibrated
        d["gsum_source"] = "tuner" if self.tuner is not None else "measured-table"
        return d
