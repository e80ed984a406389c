"""The discrete-event engine: a virtual clock plus an event heap.

Times are floats in **seconds** of virtual time.  The engine is
single-threaded and deterministic: same inputs, same event order, same
results.  The clock ``now`` and the count ``events_executed`` are plain
attributes that only :meth:`Engine.run` writes, so the per-hop code of a
link reads them without a call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterator, Optional

from repro.obs import trace as obs_trace


#: Added to the sequence number of a late event so that it sorts behind
#: every ordinary event with the same timestamp.
_LATE = 1 << 62


class SimTimeError(ValueError):
    """Raised when an event is scheduled in the (virtual) past — or at a
    non-finite time, which would silently corrupt heap ordering (``nan``
    compares False against everything, so it would sink into the heap
    and break the determinism invariant rather than erroring)."""


def _bad_delay(delay: float) -> SimTimeError:
    if not math.isfinite(delay):
        return SimTimeError(f"cannot schedule a non-finite delay ({delay})")
    return SimTimeError(f"cannot schedule {delay} s in the past")


class DeadlockError(RuntimeError):
    """Raised by the watchdog: the event heap drained to quiescence while
    worker (non-daemon) processes were still blocked.

    ``blocked`` carries the stuck :class:`~repro.sim.process.Process`
    objects so callers can inspect which ranks hung and on what queue.
    ``crashed`` maps crashed node ids to their death times: queues that
    belong to a crashed node are annotated in the message, so a crash
    without recovery enabled reads as a crash, not as a protocol bug.
    """

    def __init__(self, blocked: list, crashed: Optional[dict] = None) -> None:
        self.blocked = list(blocked)
        self.crashed = dict(crashed or {})
        details = []
        for p in self.blocked:
            desc = f"{p.name} waiting on {p.waiting_desc()}"
            dead = self._crashed_nodes_of(p)
            if dead:
                owners = ", ".join(
                    f"node {n} (crashed at t={self.crashed[n]:.6g} s)"
                    for n in dead
                )
                desc += f" [queue belongs to {owners}]"
            details.append(desc)
        msg = (
            f"simulation quiescent with {len(self.blocked)} blocked "
            f"process(es): {'; '.join(details)}"
        )
        if self.crashed:
            nodes = ", ".join(str(n) for n in sorted(self.crashed))
            msg += (
                f". Node(s) {nodes} crashed during this run: the blocked "
                "queues above that belong to crashed nodes indicate an "
                "unrecovered node failure, not a communication-protocol "
                "bug; enable crash recovery to survive it."
            )
        super().__init__(msg)

    def _crashed_nodes_of(self, proc) -> list:
        """Crashed node ids referenced by a blocked process's name or by
        the queue it waits on (``nodeN``/``rankN`` naming convention)."""
        text = f"{proc.name} {proc.waiting_desc()}"
        hits = []
        for n in sorted(self.crashed):
            for token in (f"node{n}", f"rank{n}"):
                # require a token boundary on both sides: "node1" must
                # not match inside "node12" (right) nor inside
                # "badnode1"/"respawnnode1" (left).
                idx = text.find(token)
                while idx != -1:
                    end = idx + len(token)
                    left_ok = idx == 0 or not text[idx - 1].isalnum()
                    right_ok = end == len(text) or not text[end].isdigit()
                    if left_ok and right_ok:
                        hits.append(n)
                        break
                    idx = text.find(token, idx + 1)
                if hits and hits[-1] == n:
                    break
        return hits


class Interrupt(Exception):
    """Thrown *into* a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter passed.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Engine:
    """Event heap + virtual clock.

    The core loop pops ``(time, seq, callback, args)`` entries in order and
    runs each callback at its scheduled virtual time.  Model processes (see
    :class:`repro.sim.process.Process`) are generators driven by these
    callbacks.
    """

    def __init__(self) -> None:
        #: Current virtual time in seconds (written by ``run`` only).
        self.now: float = 0.0
        #: Total number of events the engine has dispatched.
        self.events_executed = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        #: the latest ``late_ticket`` time: where a quiescent run ends.
        self._hold = 0.0
        #: True between runs once every event at or before ``now`` has
        #: run (the heap drained or ``until`` was reached): a late event
        #: left out at exactly ``now`` is then over, not still to come.
        self.settled = True
        self._processes: list = []  # every Process ever registered (pruned lazily)
        self._prune_threshold = 4096
        #: Crashed node ids -> virtual death time, maintained by the
        #: fabric's ``kill_endpoint``; the watchdog uses it to tell a
        #: dead-node stall apart from a protocol deadlock.
        self.crashed_nodes: dict[int, float] = {}

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        # single comparison on the hot path: nan and negatives both fail
        # the chain (nan compares False), inf fails the upper bound
        if not 0.0 <= delay < math.inf:
            raise _bad_delay(delay)
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def late_ticket(self, when: float) -> int:
        """Reserve a place at the end of instant ``when``: behind every
        ordinary event of that virtual time, including ones scheduled
        later on, and in reservation order among late events.  A
        resource that frees up at ``when`` arbitrates there among
        everything that asked for it by then (exact float ties are the
        norm on a cut-through pipeline) — ``schedule_at(when, fn,
        ticket=...)`` — or, if nobody asked, schedules nothing: a run
        that drains the heap still ends with the clock at ``when``."""
        if when > self._hold:
            self._hold = when
        return _LATE + next(self._seq)

    def schedule_at(
        self, when: float, fn: Callable[..., None], *args: Any, ticket: Optional[int] = None
    ) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when`` (in the
        place ``ticket`` reserved there, if one is given)."""
        if not self.now <= when < math.inf:
            if not math.isfinite(when):
                raise SimTimeError(f"cannot schedule at a non-finite time ({when})")
            raise SimTimeError(f"cannot schedule at {when} < now {self.now}")
        if ticket is None:
            ticket = next(self._seq)
        heapq.heappush(self._heap, (when, ticket, fn, args))

    def process(self, gen: Iterator[Any], name: Optional[str] = None, daemon: bool = False) -> "Process":
        """Register a generator as a simulation process and start it now.

        ``daemon`` marks service processes (VI servers, protocol
        dispatchers, heartbeat beacons) that legitimately block forever;
        the deadlock watchdog ignores them.
        """
        from repro.sim.process import Process

        return Process(self, gen, name=name, daemon=daemon)

    def _register_process(self, proc: Any) -> None:
        self._processes.append(proc)
        if len(self._processes) > self._prune_threshold:
            self._processes = [p for p in self._processes if p.alive]
            # Doubling threshold keeps registration amortized O(1): when
            # most processes are long-lived daemons (per-node servers,
            # beacons and detectors of a large cluster) a fixed threshold
            # would rescan the full list on every append — O(P^2) wiring.
            self._prune_threshold = max(4096, 2 * len(self._processes))

    def blocked_processes(self) -> list:
        """Worker (non-daemon) processes currently blocked on a waitable."""
        self._processes = [p for p in self._processes if p.alive]
        return [
            p
            for p in self._processes
            if not p.daemon and p._waiting_on is not None
        ]

    def timeout(self, delay: float) -> "Timeout":
        """Waitable that fires ``delay`` seconds from now."""
        from repro.sim.process import Timeout

        return Timeout(self, delay)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        watchdog: bool = False,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Dispatch events until the heap drains, ``until`` passes, or
        ``max_events`` have run.  Returns the final virtual time.

        With ``watchdog=True`` the engine checks for deadlock at
        quiescence: if the heap drained while non-daemon processes are
        still blocked on waitables, it raises :class:`DeadlockError`
        naming the stuck processes and the queues they wait on.

        ``stop_when`` is a predicate checked between events: the engine
        returns as soon as it is true, leaving pending events in the
        heap.  Perpetual service traffic (heartbeat beacons, failure
        detectors) keeps the heap non-empty forever, so phases that run
        on such a cluster must bound themselves by completion condition
        rather than by quiescence.
        """
        # The dispatch loop is the DES tier's hottest path: bind the heap
        # and heappop locally, check the tracer only at the 64-event
        # batch boundary, and skip the peek entirely when unbounded.
        heap = self._heap
        heappop = heapq.heappop
        cap = math.inf if max_events is None else max_events
        hit_cap = False
        self.settled = False
        while heap:
            if stop_when is not None and stop_when():
                return self.now
            if until is not None and heap[0][0] > until:
                self.now = until
                self.settled = True
                return self.now
            when, _seq, fn, args = heappop(heap)
            self.now = when
            self.events_executed = n = self.events_executed + 1
            fn(*args)
            if n % 64 == 0:
                tr = obs_trace.TRACER
                if tr is not None:
                    tr.counter(
                        "engine", "events", self.now, {"pending": len(heap), "executed": n},
                    )
            if n >= cap:
                hit_cap = True
                break
        if not heap and not hit_cap:
            self.settled = True
            if self._hold > self.now:  # late events that were left out
                self.now = self._hold if until is None else min(self._hold, until)
            if watchdog and not (stop_when is not None and stop_when()):
                blocked = self.blocked_processes()
                if blocked:
                    raise DeadlockError(blocked, crashed=self.crashed_nodes)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> float:
        """Virtual time of the next pending event (``inf`` if none)."""
        return self._heap[0][0] if self._heap else float("inf")

    def empty(self) -> bool:
        """True when no events are pending."""
        return not self._heap
