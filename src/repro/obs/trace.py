"""DES tracing: Chrome trace-event records in *virtual* time.

The tracer is a passive collector: instrumented subsystems (the engine,
links, NIUs, the BSP runtime, the coupler) call it with timestamps from
whatever virtual clock they own, and it accumulates records in the
Chrome trace-event JSON format, loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.

Design constraints:

* **near-zero overhead when off** — instrumentation sites hold no state
  and perform a single module-attribute check (``trace.TRACER is None``)
  per would-be event; nothing is allocated and no call is made;
* **never perturbs the simulation** — the tracer only reads clocks, it
  never schedules events or advances time, so a traced run is bit-exact
  and event-for-event identical to an untraced one;
* **named tracks, not magic numbers** — callers address tracks by
  string (``pid="fabric"``, ``tid=link name``); the tracer lazily maps
  them to the integer pid/tid ids the trace format wants and emits the
  ``process_name``/``thread_name`` metadata records automatically.

Timestamps are in virtual **seconds**; the tracer scales them to the
trace format's microseconds.  Distinct clock domains (the DES engine,
each BSP runtime's lockstep clock) simply live in distinct process
groups of one trace.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: Trace phase constants (Chrome trace-event ``ph`` field).
PH_COMPLETE = "X"
PH_BEGIN = "B"
PH_END = "E"
PH_INSTANT = "i"
PH_COUNTER = "C"
PH_METADATA = "M"


class Tracer:
    """Collects trace events; all timestamps in virtual seconds."""

    def __init__(self, max_events: int = 2_000_000) -> None:
        #: Multiplier from virtual seconds to trace timestamp units (us).
        self.time_scale = 1e6
        #: Hard cap on stored events (runaway-trace protection); beyond
        #: it events are counted in :attr:`dropped` instead of stored.
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        #: Open begin-span stacks per (pid, tid), for auto-close on save.
        self._open: dict[tuple[int, int], list[str]] = {}
        self._last_ts = 0.0

    # -- track naming ----------------------------------------------------

    def _pid(self, name: str) -> int:
        pid = self._pids.get(name)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[name] = pid
            self._raw(
                {"ph": PH_METADATA, "name": "process_name", "pid": pid, "tid": 0,
                 "args": {"name": name}}
            )
        return pid

    def _tid(self, pid: int, name: str) -> int:
        tid = self._tids.get((pid, name))
        if tid is None:
            tid = len([k for k in self._tids if k[0] == pid]) + 1
            self._tids[(pid, name)] = tid
            self._raw(
                {"ph": PH_METADATA, "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": name}}
            )
        return tid

    # -- event emission --------------------------------------------------

    def _raw(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _stamp(self, t: float) -> float:
        if t > self._last_ts:
            self._last_ts = t
        return t * self.time_scale

    def complete(
        self,
        pid: str,
        tid: str,
        name: str,
        t0: float,
        t1: float,
        cat: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """A span with known start and end ("X" event)."""
        p = self._pid(pid)
        ev = {
            "ph": PH_COMPLETE, "name": name, "cat": cat or "span",
            "pid": p, "tid": self._tid(p, tid),
            "ts": self._stamp(t0), "dur": max(self._stamp(t1) - t0 * self.time_scale, 0.0),
        }
        if args:
            ev["args"] = args
        self._raw(ev)

    def begin(self, pid: str, tid: str, name: str, ts: float, cat: str = "") -> None:
        """Open a nested span ("B"); pair with :meth:`end`."""
        p = self._pid(pid)
        t = self._tid(p, tid)
        self._raw({"ph": PH_BEGIN, "name": name, "cat": cat or "span",
                   "pid": p, "tid": t, "ts": self._stamp(ts)})
        self._open.setdefault((p, t), []).append(name)

    def end(self, pid: str, tid: str, ts: float) -> None:
        """Close the innermost open span on a track ("E")."""
        p = self._pid(pid)
        t = self._tid(p, tid)
        stack = self._open.get((p, t))
        if not stack:
            return  # tracing started mid-span; nothing to close
        stack.pop()
        self._raw({"ph": PH_END, "pid": p, "tid": t, "ts": self._stamp(ts)})

    def instant(self, pid: str, tid: str, name: str, ts: float, cat: str = "",
                args: Optional[dict] = None) -> None:
        """A point event ("i", thread scope)."""
        p = self._pid(pid)
        ev = {"ph": PH_INSTANT, "name": name, "cat": cat or "event", "s": "t",
              "pid": p, "tid": self._tid(p, tid), "ts": self._stamp(ts)}
        if args:
            ev["args"] = args
        self._raw(ev)

    def counter(self, pid: str, name: str, ts: float, values: dict) -> None:
        """A counter sample ("C"): ``values`` maps series name -> number."""
        p = self._pid(pid)
        self._raw({"ph": PH_COUNTER, "name": name, "pid": p, "tid": 0,
                   "ts": self._stamp(ts), "args": dict(values)})

    # -- export ----------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.events)

    def category_counts(self) -> dict[str, int]:
        """Stored events per category (metadata under ``"meta"``)."""
        out: dict[str, int] = {}
        for ev in self.events:
            key = "meta" if ev["ph"] == PH_METADATA else ev.get("cat", ev["ph"])
            out[key] = out.get(key, 0) + 1
        return out

    def finalize(self) -> None:
        """Close every still-open begin-span at the last seen timestamp
        (daemon processes legitimately block forever)."""
        ts = self._last_ts * self.time_scale
        for (p, t), stack in self._open.items():
            while stack:
                stack.pop()
                self._raw({"ph": PH_END, "pid": p, "tid": t, "ts": ts})

    def to_chrome(self) -> dict:
        """The complete trace as a Chrome trace-event JSON object."""
        self.finalize()
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "clock": "virtual seconds x %g" % self.time_scale,
                "dropped_events": self.dropped,
            },
        }

    def save(self, path: str) -> dict:
        """Write the trace JSON to ``path``; returns the trace object."""
        obj = self.to_chrome()
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return obj


#: The active tracer, or None (tracing off).  Instrumented hot paths
#: read this module attribute directly: ``if trace.TRACER is not None``.
TRACER: Optional[Tracer] = None


def start() -> Tracer:
    """Install (and return) a fresh active tracer."""
    global TRACER
    TRACER = Tracer()
    return TRACER


def stop() -> Optional[Tracer]:
    """Deactivate tracing; returns the tracer that was active."""
    global TRACER
    t, TRACER = TRACER, None
    return t


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Context manager: trace the enclosed block, then deactivate."""
    t = start()
    try:
        yield t
    finally:
        if TRACER is t:
            stop()


def emit_arg_packet(pkt: Any) -> dict:
    """Standard ``args`` payload for a packet-shaped object."""
    return {
        "src": pkt.src,
        "dst": pkt.dst,
        "bytes": pkt.wire_bytes,
        "tag": pkt.tag,
        "priority": int(pkt.priority),
    }
