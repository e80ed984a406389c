"""Autotuner: pick the cheapest collective algorithm per situation.

``plan(op, n, nbytes, priority)`` builds every applicable schedule,
evaluates the analytic cost under the configured
:class:`~repro.network.costmodel.CommCostModel`, picks the winner and
caches the resulting :class:`CollectivePlan`.  The priority class maps
to the fabric's two traffic classes: ``Priority.HIGH`` requests
latency-critical plans (fewest rounds wins, analytic time breaks ties
— e.g. the recovery manager's commit barrier), ``Priority.LOW`` is
bulk traffic (cheapest analytic time wins outright).

``crossvalidate(plan)`` replays the winning schedule packet-by-packet
on a DES cluster (:func:`repro.collectives.des_exec.des_time_schedule`)
and reports the relative model error — the 10 %-at-N=16 acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.network.costmodel import CommCostModel, arctic_cost_model
from repro.network.packet import Priority

from .cost import schedule_cost
from .schedules import OPS, Schedule, build, candidates

PriorityLike = Union[Priority, str]

#: Above this rank count, algorithms whose schedules carry O(N^2) total
#: messages are excluded from tuning (they cannot win and their wire
#: arrays alone are prohibitively large).
DENSE_SCHEDULE_MAX_N = 256
QUADRATIC_ALGORITHMS = frozenset({"ring", "bruck"})


def _as_priority(p: PriorityLike) -> Priority:
    if isinstance(p, Priority):
        return p
    try:
        return Priority[str(p).upper()]
    except KeyError:
        raise ValueError(f"unknown priority class {p!r}") from None


@dataclass(frozen=True)
class CollectivePlan:
    """A tuned, cached collective: winning schedule + the full scoreboard."""

    op: str
    n: int
    nbytes: int
    priority: Priority
    algorithm: str
    predicted_s: float
    schedule: Schedule
    #: analytic seconds for every applicable candidate (the scoreboard).
    costs: Mapping[str, float]

    @property
    def n_rounds(self) -> int:
        return self.schedule.n_rounds

    @property
    def total_messages(self) -> int:
        return self.schedule.total_messages


class Autotuner:
    """Caching algorithm selector over the analytic cost models.

    ``backend=`` (a tier name or :class:`repro.backend.CommBackend`)
    supplies the analytic parameter set *and* the cross-validation
    ground truth: :meth:`crossvalidate` replays plans on that backend's
    fidelity instead of building its own DES cluster.
    """

    def __init__(
        self,
        model: Optional[CommCostModel] = None,
        backend=None,
        topology=None,
    ) -> None:
        if backend is not None:
            from repro.backend import resolve_backend

            backend = resolve_backend(backend)
            if model is not None:
                raise ValueError("pass model= or backend=, not both")
            model = backend.model
        self.backend = backend
        self.topology = topology
        if model is None and topology is not None:
            model = topology.cost_model()
        self.model = model or arctic_cost_model()
        self._cache: Dict[Tuple[str, int, int, Priority], CollectivePlan] = {}

    def plan(
        self,
        op: str,
        n: int,
        nbytes: int = 8,
        priority: PriorityLike = Priority.LOW,
    ) -> CollectivePlan:
        """The tuned plan for (op, rank count, payload bytes, priority)."""
        if op not in OPS:
            raise ValueError(f"unknown collective op {op!r}; choose from {OPS}")
        if n < 1:
            raise ValueError(f"rank count must be >= 1, got {n}")
        priority = _as_priority(priority)
        key = (op, n, int(nbytes), priority)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        names = list(candidates(op, n))
        if n > DENSE_SCHEDULE_MAX_N:
            # Ring schedules carry O(N^2) total messages — at N=4096 an
            # allreduce ring is ~33M sends, ~0.8 GB even as the three
            # wire arrays — and Bruck ships O(N^2) blocks.  They never
            # win above a few hundred ranks, so drop them unless
            # nothing else applies.
            names = [a for a in names if a not in QUADRATIC_ALGORITHMS] or names
        # shared with every other tuner through build()'s bounded memo
        schedules = {name: build(op, name, n, nbytes) for name in names}
        costs = {
            name: schedule_cost(sch, self.model, topology=self.topology)
            for name, sch in schedules.items()
        }
        if priority == Priority.HIGH:
            winner = min(costs, key=lambda a: (schedules[a].n_rounds, costs[a]))
        else:
            winner = min(costs, key=lambda a: (costs[a], schedules[a].n_rounds))
        plan = CollectivePlan(
            op=op,
            n=n,
            nbytes=int(nbytes),
            priority=priority,
            algorithm=winner,
            predicted_s=costs[winner],
            schedule=schedules[winner],
            costs=MappingProxyType(dict(costs)),
        )
        self._cache[key] = plan
        return plan

    # ---- runtime-facing timing helpers ---------------------------------

    def allreduce_time(self, n_nodes: int, nbytes: int = 8, smp: bool = False) -> float:
        """Tuned global-sum latency; ``smp`` adds the intra-SMP combine."""
        if n_nodes < 2:
            return self.model.smp_local_cost if smp else 0.0
        t = self.plan("allreduce", n_nodes, nbytes).predicted_s
        if smp:
            t += self.model.smp_local_cost
        return t

    # ---- DES cross-validation ------------------------------------------

    def crossvalidate(self, plan: CollectivePlan, cluster=None) -> Dict[str, float]:
        """Replay the plan's schedule packet-by-packet; returns
        ``{"predicted_s", "des_s", "rel_err"}``.

        The replay always runs the plan's *actual* schedule on the DES
        cluster — the packet-level ground truth every backend tier is
        anchored to.  Pass ``cluster=`` to reuse one.
        """
        from repro.hardware.cluster import HyadesCluster

        from .des_exec import des_time_schedule

        if cluster is None:
            cluster = HyadesCluster()
        des_s = des_time_schedule(cluster, plan.schedule)
        rel = abs(des_s - plan.predicted_s) / des_s if des_s else 0.0
        return {"predicted_s": plan.predicted_s, "des_s": des_s, "rel_err": rel}


#: Lazily built module-level tuner for callers that just want defaults
#: (``backend="analytic"``, the recovery barrier, ``repro pfpp``).
_DEFAULT: Optional[Autotuner] = None


def default_tuner() -> Autotuner:
    """The shared Arctic-model tuner (built on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Autotuner()
    return _DEFAULT
