"""Shared simulation resources: FIFO stores, priority stores, semaphores.

These model the hardware queues of the StarT-X NIU and the arbitration of
shared buses (PCI) and links (Arctic).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Optional

from repro.sim.engine import Engine
from repro.sim.process import BaseEvent


class Store:
    """An unbounded-or-bounded FIFO queue with blocking get/put.

    ``capacity=None`` means unbounded (puts never block), which models a
    memory-backed queue; a finite capacity models a hardware FIFO that
    exerts back-pressure.
    """

    def __init__(
        self, engine: Engine, capacity: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Any = deque()
        self._getters: deque[BaseEvent] = deque()
        self._putters: deque[tuple[BaseEvent, Any, int]] = deque()

    def _wait_desc(self) -> str:
        return f"{type(self).__name__}{f'({self.name})' if self.name else ''}.get"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # the two operations a subclass with another queueing discipline
    # replaces; ``priority`` is ignored by the FIFO
    def _push(self, item: Any, priority: int) -> None:
        self._items.append(item)

    def _pop(self) -> Any:
        return self._items.popleft()

    def put(self, item: Any, priority: int = 0) -> BaseEvent:
        """Waitable that fires once ``item`` is enqueued (a
        :class:`PriorityStore` serves a lower ``priority`` first)."""
        ev = BaseEvent(self.engine)
        if not self.full:
            self._push(item, priority)
            ev.succeed(item)
            self._wake_getter()
        else:
            self._putters.append((ev, item, priority))
        return ev

    def try_put(self, item: Any, priority: int = 0) -> bool:
        """Non-blocking put; returns False when the queue is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        if self._getters and not self._items and not self._putters:
            # the longest waiter takes the item straight away
            self._getters.popleft().succeed(item)
            return True
        self._push(item, priority)
        self._wake_getter()
        return True

    def get(self) -> BaseEvent:
        """Waitable that fires with the next item."""
        ev = BaseEvent(self.engine)
        ev.desc = self._wait_desc  # formatted only if read
        if self._items:
            ev.succeed(self._take())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            return True, self._take()
        return False, None

    def clear(self) -> int:
        """Discard all queued items (blocked getters stay subscribed).

        Used by epoch fencing: delivered-but-unconsumed items from an
        aborted round are purged without disturbing consumer processes
        already waiting on the queue.  Returns the number discarded.
        """
        n = len(self._items)
        self._items.clear()
        return n

    def _take(self) -> Any:
        item = self._pop()
        if self._putters:
            pev, pitem, ppriority = self._putters.popleft()
            self._push(pitem, ppriority)
            pev.succeed(pitem)
        return item

    def _wake_getter(self) -> None:
        while self._getters and self._items:
            self._getters.popleft().succeed(self._take())


class PriorityStore(Store):
    """A store that always yields the lowest-priority-value item first
    (FIFO among equal priorities; ``put(item, priority)``).

    Models Arctic's two-priority rule: high-priority (lower value) messages
    can never be blocked behind low-priority ones.
    """

    def __init__(
        self, engine: Engine, capacity: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(engine, capacity, name=name)
        self._items: list[tuple[int, int, Any]] = []  # a heap
        self._seq = itertools.count()

    def _push(self, item: Any, priority: int) -> None:
        heapq.heappush(self._items, (priority, next(self._seq), item))

    def _pop(self) -> Any:
        return heapq.heappop(self._items)[2]


class Resource:
    """A counted semaphore; models bus ownership / DMA-engine arbitration."""

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[BaseEvent] = deque()

    def acquire(self) -> BaseEvent:
        """Waitable granting one slot of the resource."""
        ev = BaseEvent(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release without acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1


class Signal:
    """A broadcast condition: every waiter is released on each ``fire``."""

    def __init__(self, engine: Engine, name: Optional[str] = None) -> None:
        self.engine = engine
        self.name = name
        self._waiters: deque[BaseEvent] = deque()

    def wait(self) -> BaseEvent:
        """Waitable released at the next :meth:`fire`."""
        ev = BaseEvent(self.engine)
        ev.desc = self._wait_desc  # formatted only if read
        self._waiters.append(ev)
        return ev

    def _wait_desc(self) -> str:
        return f"Signal({self.name}).wait" if self.name else "Signal.wait"

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)
