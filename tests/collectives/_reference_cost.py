"""The per-``Send`` pricing loop, kept as a differential oracle.

This is ``repro.collectives.cost.schedule_cost`` as it stood while it
walked a round one ``Send`` at a time: sends first, in schedule order,
then receives in schedule order, every cost a scalar call.  The library
prices a round as arrays over ``Schedule.columns``;
``tests/collectives/test_cost_equivalence.py`` checks it bitwise
against this loop.  It must never be imported from ``src/`` or
``benchmarks/``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.collectives.schedules import Schedule
from repro.core.logp import analytic_logp
from repro.network.costmodel import CommCostModel, arctic_cost_model
from repro.network.overheads import (
    GSUM_SW_COST,
    MIN_WIRE_BYTES,
    SMALL_MSG_MAX_BYTES,
)
from repro.niu.startx import PIO_COST_MODEL


def schedule_cost(
    schedule: Schedule,
    model: Optional[CommCostModel] = None,
    per_rank: bool = False,
    topology=None,
):
    """Predicted completion time of a schedule (seconds).

    Mirrors the DES rank processes: within a round each rank first
    issues its sends back-to-back, then drains its receives in schedule
    order — a receive completes at ``max(own progress, message
    arrival) + pull cost``, where the arrival is the *sender's* send
    completion.  With ``per_rank`` returns the full clock vector
    instead of its max.

    Without ``topology`` the legacy Arctic fat-tree wire is assumed
    (fixed worst-case transit for PIO packets).  With a
    :class:`~repro.network.topology.Topology` (ranks mapped to
    endpoints by identity), every message leg pays its actual
    ``hop_distance(src, dst)`` of stage latency plus wire
    serialization, and the PIO small-message path only applies on
    machines that have one (``topology.pio_small_messages``) — this is
    what lets the autotuner's algorithm choice flip between machine
    shapes.
    """
    if model is None:
        model = topology.cost_model() if topology is not None else arctic_cost_model()
    n = schedule.n
    if topology is not None and n > topology.n_endpoints:
        from repro.network.errors import TopologyError

        raise TopologyError(
            f"schedule spans {n} ranks but {topology.name} has only "
            f"{topology.n_endpoints} endpoints"
        )
    pio = topology.pio_small_messages if topology is not None else True
    clocks = [0.0] * n
    for rnd in schedule.rounds:
        cur = list(clocks)
        sent: Dict[int, float] = {}
        for j, s in enumerate(rnd):
            b = max(s.nbytes, MIN_WIRE_BYTES)
            if pio and b <= SMALL_MSG_MAX_BYTES:
                cur[s.src] += PIO_COST_MODEL.os_time(b)
            else:
                cur[s.src] += model.transfer_overhead + b / model.bandwidth
            sent[j] = cur[s.src]
        for j, s in enumerate(rnd):
            b = max(s.nbytes, MIN_WIRE_BYTES)
            if topology is None:
                wire_latency = analytic_logp(b).latency
            else:
                wire_latency = (
                    topology.hop_distance(s.src, s.dst) * topology.stage_latency
                    + (b + 8) / topology.link_bandwidth
                )
            if pio and b <= SMALL_MSG_MAX_BYTES:
                # PIO: one poll-loop pass overlaps the wait for the
                # packet (sender's store + fabric transit), then the
                # mmap reads drain it — exactly the DES inner loop
                arrive = sent[j] + wire_latency
                cur[s.dst] = (
                    max(cur[s.dst] + GSUM_SW_COST, arrive)
                    + PIO_COST_MODEL.or_time(b)
                )
            else:
                # VI: the receiver's PCI pull serializes behind its own
                # traffic and cannot start before the DMA has landed
                arrive = sent[j] if topology is None else sent[j] + wire_latency
                cur[s.dst] = (
                    max(cur[s.dst], arrive)
                    + model.transfer_overhead
                    + b / model.bandwidth
                )
        clocks = cur
    if per_rank:
        return clocks
    return max(clocks) if clocks else 0.0
