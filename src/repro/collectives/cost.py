"""Analytic cost evaluation of collective schedules (LogP/Arctic).

Per-message costs come from the same calibrated places the DES charges:

* small messages (<= 88 B payload) ride single PIO packets — sender
  pays ``os(b)`` mmap-write cost, receiver pays the shared
  ``GSUM_SW_COST`` poll-loop overhead plus ``or(b)`` mmap reads
  (:data:`repro.niu.startx.PIO_COST_MODEL`,
  :mod:`repro.network.overheads`).  At 8 bytes this round cost is
  0.36 + 2.00 + 1.86 = 4.22 us — the DES global sum's exact per-round
  cost, within 10 % of every measured Fig. 8 latency;
* larger messages negotiate VI block transfers — each direction costs
  ``transfer_overhead + b / bandwidth`` from the
  :class:`~repro.network.costmodel.CommCostModel`, and a rank's sends
  and receives serialize on its PCI bus (Section 4.1), exactly as
  ``des_exchange`` measures ``2 (to + b/bw)`` for a pairwise swap.

:func:`schedule_cost` propagates per-rank clocks round by round: a
round's receives cannot complete before its senders have entered the
round, so skewed trees cost their true critical path rather than
``rounds x round_cost``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.logp import analytic_logp
from repro.network.costmodel import CommCostModel, arctic_cost_model
from repro.network.overheads import GSUM_SW_COST, SMALL_MSG_MAX_BYTES
from repro.niu.startx import PIO_COST_MODEL

from .schedules import Schedule, build, candidates


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
    col = schedule.columns
    to, bw = model.transfer_overhead, model.bandwidth
    # per distinct byte count, from the scalar functions the DES charges:
    # send cost, wire latency, then the three operands of a receive,
    # (max(own + poll, arrive) + drain) + drain_bw
    rows = []
    for b in col.sizes.tolist():
        small = pio and b <= SMALL_MSG_MAX_BYTES
        if topology is not None:
            latency = (b + 8) / topology.link_bandwidth
        else:  # the legacy VI arrival is the sender's completion itself
            latency = analytic_logp(b).latency if small else 0.0
        if small:
            # PIO: one poll-loop pass overlaps the wait for the packet
            # (sender's store + fabric transit), then the mmap reads
            # drain it — exactly the DES inner loop
            rows.append((PIO_COST_MODEL.os_time(b), latency, GSUM_SW_COST,
                         PIO_COST_MODEL.or_time(b), 0.0))
        else:
            # VI: the receiver's PCI pull serializes behind its own
            # traffic and cannot start before the DMA has landed
            rows.append((to + b / bw, latency, 0.0, to, b / bw))
    table = np.array(rows).reshape(-1, 5).T
    if topology is not None:
        hop_latency = topology.stage_latency * np.array(
            [topology.hop_distance(s, d) for s, d in zip(*col.pairs.T.tolist())], dtype=float
        )
    clocks = np.zeros(n)
    bounds = col.bounds.tolist()
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        send, latency, poll, drain, drain_bw = table[:, col.size_of[lo:hi]]
        if topology is not None:
            latency = hop_latency[col.pair_of[lo:hi]] + latency
        src, dst = col.src[lo:hi], col.dst[lo:hi]
        sent = np.empty(hi - lo)
        for w in col.send_waves[r]:  # the k-th send of every source at once
            clocks[src[w]] += send[w]
            sent[w] = clocks[src[w]]
        for w in col.recv_waves[r]:  # the k-th receive of every destination
            clocks[dst[w]] = (
                np.maximum(clocks[dst[w]] + poll[w], sent[w] + latency[w]) + drain[w]
            ) + drain_bw[w]
    if per_rank:
        return clocks.tolist()
    return float(clocks.max()) if n else 0.0


def cost_table(op: str, n: int, sizes: Sequence[int]) -> Dict[str, List[float]]:
    """Analytic Arctic cost of every applicable algorithm across message
    sizes."""
    model = arctic_cost_model()
    return {
        name: [schedule_cost(build(op, name, n, size), model) for size in sizes]
        for name in candidates(op, n)
    }
