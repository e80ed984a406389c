"""Graceful degradation under resource pressure.

When the backlog outgrows what the pool can plausibly serve, the
service degrades *predictably* instead of collapsing: LOW-priority
pending jobs are shed (journaled as ``shed``, a terminal state the
submitter can observe) until the backlog fits again.  NORMAL and HIGH
jobs are never shed — pressure only ever costs the traffic class that
opted into being droppable, mirroring the Arctic fabric's two-priority
contract (HIGH traffic is never blocked by LOW).

Shedding picks the *newest* LOW jobs first: older submissions have
waited longest and are closest to being served, so dropping the newest
minimizes wasted queueing work.
"""

from __future__ import annotations

from typing import List

from .jobs import JobPriority
from .queue import JobQueue

#: Backlog ceiling: pending jobs past it shed LOW-priority work.
MAX_PENDING = 1000


def shed_excess(queue: JobQueue, metrics=None) -> List[str]:
    """Shed newest LOW-priority pending jobs while the backlog exceeds
    ``MAX_PENDING``; returns the shed job ids (possibly empty)."""
    shed: List[str] = []
    while True:
        pending = queue.pending()
        if len(pending) <= MAX_PENDING:
            break
        low = [s for s in pending if s.spec.priority == JobPriority.LOW]
        if not low:
            break  # only LOW is droppable; an over-full NORMAL/HIGH
            # backlog rides it out
        victim = max(low, key=lambda s: s.submit_seq)
        queue.mark_shed(
            victim.job_id,
            f"load shed: {len(pending)} pending > cap {MAX_PENDING}",
        )
        shed.append(victim.job_id)
        if metrics is not None:
            metrics.count("shed")
    return shed


__all__ = ["MAX_PENDING", "shed_excess"]
