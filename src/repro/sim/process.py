"""Generator-based simulation processes and waitable events.

A *waitable* is any object with ``subscribe(fn)``: the engine resumes a
blocked process with the waitable's value when it fires.  Processes are
themselves waitable, so one process can ``yield`` another to join on it.

A wake-up is one call chain: a process puts its one wake callback on the
pending event it yields, ``succeed`` schedules it, and the wake sends the
value straight into the generator (a timeout wake: seven Python frames).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.obs import trace as obs_trace
from repro.sim.engine import Engine, Interrupt

_PENDING = object()


class BaseEvent:
    """A one-shot waitable: fires once with a value, notifying subscribers."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._value: Any = _PENDING
        self._ok = True
        self._subs: list[Callable[["BaseEvent"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """False when the event carries an exception rather than a value."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event has not fired yet")
        return self._value

    def subscribe(self, fn: Callable[["BaseEvent"], None]) -> None:
        """Call ``fn(event)`` when this event fires (immediately if fired)."""
        if self._value is not _PENDING:
            # Deliver asynchronously but at the same virtual time, so
            # subscription order never reorders the clock.
            self.engine.schedule(0.0, fn, self)
        else:
            self._subs.append(fn)

    def succeed(self, value: Any = None) -> "BaseEvent":
        """Fire the event with ``value`` at the current virtual time:
        each subscriber is scheduled for now, in subscription order."""
        if self._value is not _PENDING:
            raise RuntimeError("event already fired")
        self._value = value
        subs = self._subs
        if subs:
            self._subs = []
            schedule = self.engine.schedule
            for fn in subs:
                schedule(0.0, fn, self)
        return self

    def fail(self, exc: BaseException) -> "BaseEvent":
        """Fire the event with an exception; waiters see it raised."""
        if self._value is not _PENDING:
            raise RuntimeError("event already fired")
        self._ok = False
        return self.succeed(exc)


class Timeout(BaseEvent):
    """Fires ``delay`` seconds after creation."""

    def __init__(self, engine: Engine, delay: float, value: Any = None) -> None:
        # BaseEvent's fields, set here: the commonest wait skips a frame
        self.engine = engine
        self._value = _PENDING
        self._ok = True
        self._subs = []
        self.delay = delay
        engine.schedule(delay, self.succeed, value)


class AllOf(BaseEvent):
    """Fires once every child event has fired; value is the list of values."""

    def __init__(self, engine: Engine, events: list) -> None:
        super().__init__(engine)
        self._remaining = len(events)
        self._events = list(events)
        if self._remaining == 0:
            self.succeed([])
        else:
            for ev in events:
                ev.subscribe(self._on_child)

    def _on_child(self, ev: BaseEvent) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(BaseEvent):
    """Fires when the first child fires; value is ``(index, value)``."""

    def __init__(self, engine: Engine, events: list) -> None:
        super().__init__(engine)
        if not events:
            raise ValueError("AnyOf needs at least one event")
        for i, ev in enumerate(events):
            ev.subscribe(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, idx: int, ev: BaseEvent) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed((idx, ev.value))


class Process(BaseEvent):
    """Drives a generator; the process event fires with the return value.

    The generator yields waitables; each resumption sends the waitable's
    value back into the generator (or throws, for failed events and
    interrupts).
    """

    def __init__(
        self,
        engine: Engine,
        gen: Iterator[Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        super().__init__(engine)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.daemon = daemon
        self._waiting_on: Optional[BaseEvent] = None
        self._trace_blocked = False
        #: the wake callback, bound once and put on every event waited for
        self._wake = self._on_wait_done
        engine._register_process(self)
        engine.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def waiting_desc(self) -> str:
        """Human-readable description of what this process blocks on: the
        event's ``desc`` (a callable a queue sets, so a wait formats
        nothing until read), else its type name."""
        ev = self._waiting_on
        if ev is None:
            return "nothing (runnable)"
        desc = getattr(ev, "desc", None)
        return desc() if desc is not None else type(ev).__name__

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self._waiting_on = None  # stale wakeups are ignored via the token
        self._trace_unblock()
        self.engine.schedule(0.0, self._resume, None, Interrupt(cause))

    # -- tracing (block/unblock spans on the process track) --------------

    def _trace_block(self) -> None:
        tr = obs_trace.TRACER
        if tr is not None:
            tr.begin(
                "processes",
                self.name,
                f"wait {self.waiting_desc()}",
                self.engine.now,
                cat="proc",
            )
            self._trace_blocked = True

    def _trace_unblock(self) -> None:
        if self._trace_blocked:
            self._trace_blocked = False
            tr = obs_trace.TRACER
            if tr is not None:
                tr.end("processes", self.name, self.engine.now)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        """Start the generator, or throw an interrupt into it."""
        self._on_wait_done(None, value, exc)

    def _on_wait_done(self, ev: Optional[BaseEvent], value: Any = None, exc: Any = None) -> None:
        """The wake: send ``ev``'s value (throw its exception) into the
        generator and wait on what it yields next; ``_resume`` passes no
        event but the value or exception itself."""
        if ev is not None:
            if self._waiting_on is not ev:
                return  # interrupted while waiting; this wakeup is stale
            self._waiting_on = None
            if self._trace_blocked:
                self._trace_unblock()
            if ev._ok:
                value = ev._value
            else:
                exc = ev._value
        if self._value is not _PENDING:
            return
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interruption: treat as death.
            self.succeed(None)
            return
        if not hasattr(target, "subscribe"):
            raise TypeError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
        self._waiting_on = target
        if obs_trace.TRACER is not None:
            self._trace_block()
        if isinstance(target, BaseEvent) and target._value is _PENDING:
            target._subs.append(self._wake)
        else:
            target.subscribe(self._wake)
