"""The process layer as it stood before a wake-up became one call
chain, kept as a differential oracle.

The event and process classes and the queues below are that code
verbatim: a wait goes through ``hasattr`` -> ``subscribe`` -> the
``triggered`` property, ``succeed`` fires through ``_notify``, a wake
runs ``_on_wait_done`` -> ``_trace_unblock`` -> ``_resume``, and every
``Store.get`` / ``Signal.wait`` formats its ``desc`` up front.  So are
the NIU methods of the time (a throwaway ``Signal`` as every
``setdefault`` default, PIO accesses counted twice), the VI demux's
server and ``await_slab``, and the reliable layer's ``recv`` and
receive-flow lookup.  Only the ``Reference*`` subclass names and
:func:`install` are new: it rebinds every ``repro`` module's name for a
live class to its old counterpart, so a cluster built inside it runs on
the old layer end to end.  ``tests/sim/test_process_equivalence.py``
demands the same dispatch log, events, values, errors and trace.  Never
import this module from ``src/``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.network.fabrics import Fabric
from repro.network.overheads import TRANSFER_BANDWIDTH
from repro.network.packet import MAX_PAYLOAD_WORDS, Packet, Priority, WORD_BYTES
from repro.niu import demux as live_demux
from repro.niu import pci
from repro.niu import reliable as live_reliable
from repro.niu import startx as live_startx
from repro.niu.pci import PCIBus
from repro.niu.reliable import TAG_RACK, TAG_RNACK, Message, _RxFlow
from repro.niu.startx import (
    PIO_COST_MODEL,
    TAG_VI_ACK,
    TAG_VI_DATA,
    TAG_VI_REQ,
    VI_FRAG_BYTES,
    VI_SETUP_COST,
    VITransfer,
)
from repro.obs import trace as obs_trace
from repro.sim import process as live_process
from repro.sim import resources as live_resources
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
        if self.triggered:
            # Deliver asynchronously but at the same virtual time, so
            # subscription order never reorders the clock.
            self.engine.schedule(0.0, fn, self)
        else:
            self._subs.append(fn)

    def succeed(self, value: Any = None) -> "BaseEvent":
        """Fire the event with ``value`` at the current virtual time."""
        if self.triggered:
            raise RuntimeError("event already fired")
        self._value = value
        return self._notify()

    def fail(self, exc: BaseException) -> "BaseEvent":
        """Fire the event with an exception; waiters see it raised."""
        if self.triggered:
            raise RuntimeError("event already fired")
        self._ok = False
        self._value = exc
        return self._notify()

    def _notify(self) -> "BaseEvent":
        subs, self._subs = self._subs, []
        for fn in subs:
            self.engine.schedule(0.0, fn, self)
        return self


class Timeout(BaseEvent):
    """Fires ``delay`` seconds after creation."""

    def __init__(self, engine: Engine, delay: float, value: Any = None) -> None:
        super().__init__(engine)
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
        engine._register_process(self)
        engine.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def waiting_desc(self) -> str:
        """Human-readable description of what this process blocks on."""
        ev = self._waiting_on
        if ev is None:
            return "nothing (runnable)"
        return getattr(ev, "desc", None) or type(ev).__name__

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
        if self.triggered:
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
        target.subscribe(self._on_wait_done)

    def _on_wait_done(self, ev: BaseEvent) -> None:
        if self._waiting_on is not ev:
            return  # interrupted while waiting; this wakeup is stale
        self._waiting_on = None
        self._trace_unblock()
        if ev.ok:
            self._resume(ev.value, None)
        else:
            self._resume(None, ev.value)



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

    def _label(self) -> str:
        return f"{type(self).__name__}({self.name})" if self.name else type(self).__name__

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

    def put(self, item: Any) -> BaseEvent:
        """Waitable that fires once ``item`` is enqueued."""
        return self._put(item, 0)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the queue is full."""
        return self._try_put(item, 0)

    def _put(self, item: Any, priority: int) -> BaseEvent:
        ev = BaseEvent(self.engine)
        if not self.full:
            self._push(item, priority)
            ev.succeed(item)
            self._wake_getter()
        else:
            self._putters.append((ev, item, priority))
        return ev

    def _try_put(self, item: Any, priority: int) -> bool:
        if self.full:
            return False
        self._push(item, priority)
        self._wake_getter()
        return True

    def get(self) -> BaseEvent:
        """Waitable that fires with the next item."""
        ev = BaseEvent(self.engine)
        ev.desc = f"{self._label()}.get"
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
            gev = self._getters.popleft()
            gev.succeed(self._take())


class PriorityStore(Store):
    """A store that always yields the lowest-priority-value item first
    (FIFO among equal priorities).

    Models Arctic's two-priority rule: high-priority (lower value) messages
    can never be blocked behind low-priority ones.
    """

    def __init__(
        self, engine: Engine, capacity: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(engine, capacity, name=name)
        self._items: list[tuple[int, int, Any]] = []  # a heap
        self._seq = itertools.count()

    def put(self, item: Any, priority: int = 0) -> BaseEvent:
        """Waitable put honouring ``priority`` (lower value served first)."""
        return self._put(item, priority)

    def try_put(self, item: Any, priority: int = 0) -> bool:
        """Non-blocking prioritized put; False when full."""
        return self._try_put(item, priority)

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

    @property
    def in_use(self) -> int:
        return self._in_use

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
        ev.desc = f"Signal({self.name}).wait" if self.name else "Signal.wait"
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)


# -- the NIU side -------------------------------------------------------------


class ReferenceStarTX(live_startx.StarTX):
    """:class:`StarTX` with the old constructor and methods."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        node_id: int,
        pci: Optional[PCIBus] = None,
        rx_capacity: int = 256,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.node_id = node_id
        self.pci = pci or PCIBus(engine)
        self.pio_rx: Store = Store(engine, capacity=rx_capacity, name=f"pio-rx[node{node_id}]")
        self._vi_rx: Dict[int, VITransfer] = {}
        self._vi_complete: Dict[int, Signal] = {}
        self._vi_acks: Dict[int, Signal] = {}
        self._vi_requests: Store = Store(engine, name=f"vi-requests[node{node_id}]")
        self._xid_counter = itertools.count()
        self.crc_status_errors = 0
        self.packets_sent = 0
        self.packets_received = 0
        #: CPU slowdown multiplier (>= 1): every CPU-side charge (mmap
        #: register traffic, descriptor staging) stretches by this factor.
        #: Fault injection sets it during SlowdownEvent windows.
        self.cpu_factor: float = 1.0
        #: Optional receive-path intercept (e.g. the reliable-delivery
        #: layer): called with each CRC-clean packet before normal
        #: dispatch; returning True consumes the packet.
        self.rx_hook: Optional[Callable[[Packet], bool]] = None
        fabric.attach_endpoint(node_id, self._head_arrival)

    # ------------------------------------------------------------------
    # Fabric receive path
    # ------------------------------------------------------------------

    def _head_arrival(self, pkt: Packet) -> None:
        """Packet head reached this endpoint; tail drains at link rate."""
        drain = pkt.wire_bytes / self.fabric.params.link_bandwidth
        self.engine.schedule(drain, self._deliver, pkt)

    def _deliver(self, pkt: Packet) -> None:
        # Endpoint CRC check: software sees only a 1-bit status.
        if not pkt.check_crc():
            self.crc_status_errors += 1
            tr = obs_trace.TRACER
            if tr is not None:
                tr.instant(
                    "niu", f"node{self.node_id}", "crc-status-drop",
                    self.engine.now, cat="fault",
                    args=obs_trace.emit_arg_packet(pkt),
                )
            return
        self.packets_received += 1
        tr = obs_trace.TRACER
        if tr is not None:
            tr.instant(
                "niu", f"node{self.node_id}", "recv", self.engine.now,
                cat="niu", args=obs_trace.emit_arg_packet(pkt),
            )
        if self.rx_hook is not None and self.rx_hook(pkt):
            return
        if pkt.tag == TAG_VI_DATA:
            self._vi_deposit(pkt)
        elif pkt.tag == TAG_VI_REQ:
            self._vi_requests.try_put(pkt)
        elif pkt.tag == TAG_VI_ACK:
            xid = pkt.payload_words[0]
            self._vi_acks.setdefault(
                xid, Signal(self.engine, name=f"vi-ack[xid={xid}]")
            ).fire(pkt)
        else:
            if not self.pio_rx.try_put(pkt):
                raise RuntimeError(
                    f"node {self.node_id}: PIO rx queue overflow"
                )

    def _vi_deposit(self, pkt: Packet) -> None:
        """Rx DMA engine writes a fragment into the VI memory region."""
        xid, offset, nbytes = pkt.payload_words[0], pkt.payload_words[1], pkt.payload_words[2]
        xfer = self._vi_rx.get(xid)
        if xfer is None:
            # Fragment raced ahead of local bookkeeping; create it.
            xfer = VITransfer(xid=xid, src=pkt.src, dst=self.node_id, nbytes=-1)
            self._vi_rx[xid] = xfer
        xfer.received += nbytes
        if pkt.data is not None:
            if xfer.data is None:
                xfer.data = bytearray()
            buf: bytearray = xfer.data
            chunk = pkt.data
            if len(buf) < offset + len(chunk):
                buf.extend(b"\x00" * (offset + len(chunk) - len(buf)))
            buf[offset : offset + len(chunk)] = chunk
        if xfer.start_time == 0.0:
            xfer.start_time = self.engine.now
        if xfer.nbytes >= 0 and xfer.complete:
            xfer.end_time = self.engine.now
            tr = obs_trace.TRACER
            if tr is not None:
                tr.complete(
                    "niu", f"node{self.node_id}", f"vi-recv xid={xid}",
                    xfer.start_time, xfer.end_time, cat="vi",
                    args={"src": xfer.src, "bytes": xfer.nbytes},
                )
            self._vi_complete.setdefault(
                xid, Signal(self.engine, name=f"vi-complete[xid={xid}]")
            ).fire(xfer)

    # ------------------------------------------------------------------
    # PIO mode
    # ------------------------------------------------------------------

    def pio_send(
        self,
        dst: int,
        payload_words: list[int],
        tag: int = 0,
        priority: Priority = Priority.LOW,
        data: Any = None,
    ):
        """Process: enqueue one PIO message (CPU pays the mmap writes)."""
        payload_bytes = len(payload_words) * WORD_BYTES
        cost = PIO_COST_MODEL.accesses(payload_bytes) * pci.MMAP_WRITE_GAP
        self.pci.total_mmap_writes += PIO_COST_MODEL.accesses(payload_bytes)
        yield self.engine.timeout(cost * self.cpu_factor)
        pkt = Packet(
            src=self.node_id,
            dst=dst,
            payload_words=list(payload_words),
            tag=tag,
            priority=priority,
            data=data,
        )
        self.packets_sent += 1
        tr = obs_trace.TRACER
        if tr is not None:
            tr.instant(
                "niu", f"node{self.node_id}", "pio-send", self.engine.now,
                cat="niu", args=obs_trace.emit_arg_packet(pkt),
            )
        self.fabric.inject(pkt)
        return pkt

    def pio_recv(self):
        """Process: dequeue the next PIO message (CPU pays the reads)."""
        pkt: Packet = yield self.pio_rx.get()
        cost = PIO_COST_MODEL.accesses(pkt.payload_bytes) * pci.MMAP_READ_LATENCY
        self.pci.total_mmap_reads += PIO_COST_MODEL.accesses(pkt.payload_bytes)
        yield self.engine.timeout(cost * self.cpu_factor)
        return pkt

    def pio_try_recv(self):
        """Process: poll for a message; returns None after one status read."""
        ok, pkt = self.pio_rx.try_get()
        if not ok:
            yield self.engine.timeout(
                pci.MMAP_READ_LATENCY * self.cpu_factor
            )
            return None
        cost = PIO_COST_MODEL.accesses(pkt.payload_bytes) * pci.MMAP_READ_LATENCY
        yield self.engine.timeout(cost * self.cpu_factor)
        return pkt

    # ------------------------------------------------------------------
    # VI mode
    # ------------------------------------------------------------------

    def vi_expect(self, xid: int, nbytes: int, src: int) -> None:
        """Pre-register an inbound transfer (receiver posts the buffer)."""
        existing = self._vi_rx.get(xid)
        if existing is not None:
            existing.nbytes = nbytes
            if existing.complete:
                existing.end_time = self.engine.now
                self._vi_complete.setdefault(
                    xid, Signal(self.engine, name=f"vi-complete[xid={xid}]")
                ).fire(existing)
        else:
            self._vi_rx[xid] = VITransfer(xid=xid, src=src, dst=self.node_id, nbytes=nbytes)

    def vi_send(self, dst: int, nbytes: int, data: Optional[bytes] = None, xid: Optional[int] = None):
        """Process: one-direction VI block transfer (sender side).

        Performs the negotiation round trip, kicks the Tx DMA engine, and
        returns once the final fragment has been handed to the fabric and
        the completion status polled.  Returns the transfer id.
        """
        if nbytes <= 0:
            raise ValueError("VI transfer must move at least one byte")
        if xid is None:
            # Globally unique across nodes: high bits carry the sender id.
            xid = ((self.node_id & 0xFF) << 12) | (next(self._xid_counter) & 0xFFF)
        # -- negotiation: high-priority request, wait for the ack ---------
        yield from self.pio_send(
            dst, [xid, nbytes], tag=TAG_VI_REQ, priority=Priority.HIGH
        )
        sig = self._vi_acks.setdefault(xid, Signal(self.engine, name=f"vi-ack[xid={xid}]"))
        yield sig.wait()
        # poll the ack status + stage the VI buffer descriptors + kick the
        # Tx DMA engine (2 writes) ----------------------------------------
        yield self.engine.timeout(
            (pci.MMAP_READ_LATENCY + VI_SETUP_COST
             + 2 * pci.MMAP_WRITE_GAP) * self.cpu_factor
        )
        # -- stream fragments at the effective DMA payload rate -----------
        offset = 0
        while offset < nbytes:
            frag = min(VI_FRAG_BYTES, nbytes - offset)
            yield self.engine.timeout(frag / TRANSFER_BANDWIDTH)
            words = [xid, offset, frag] + [0] * max(0, math.ceil(frag / WORD_BYTES) - 3)
            words = words[:MAX_PAYLOAD_WORDS]
            if len(words) < 3:
                words += [0] * (3 - len(words))
            rider = data[offset : offset + frag] if data is not None else None
            pkt = Packet(
                src=self.node_id,
                dst=dst,
                payload_words=words,
                tag=TAG_VI_DATA,
                data=rider,
            )
            self.packets_sent += 1
            self.fabric.inject(pkt)
            offset += frag
        # completion status poll
        yield self.engine.timeout(pci.MMAP_READ_LATENCY)
        return xid

    def vi_serve_request(self):
        """Process (receiver CPU): accept one inbound VI request.

        Reads the request message, posts the receive buffer, and replies
        with a high-priority ack.  Returns the :class:`VITransfer`.
        """
        pkt: Packet = yield self._vi_requests.get()
        cost = PIO_COST_MODEL.accesses(pkt.payload_bytes) * pci.MMAP_READ_LATENCY
        yield self.engine.timeout(cost * self.cpu_factor)
        xid, nbytes = pkt.payload_words[0], pkt.payload_words[1]
        # post the receive buffer
        yield self.engine.timeout(VI_SETUP_COST * self.cpu_factor)
        self.vi_expect(xid, nbytes, src=pkt.src)
        yield from self.pio_send(pkt.src, [xid, 0], tag=TAG_VI_ACK, priority=Priority.HIGH)
        return self._vi_rx[xid]

    def vi_wait_complete(self, xid: int):
        """Process (receiver CPU): block until transfer ``xid`` lands."""
        xfer = self._vi_rx.get(xid)
        if xfer is None or not xfer.complete:
            sig = self._vi_complete.setdefault(
                xid, Signal(self.engine, name=f"vi-complete[xid={xid}]")
            )
            yield sig.wait()
            xfer = self._vi_rx[xid]
        # final status read
        yield self.engine.timeout(pci.MMAP_READ_LATENCY)
        return xfer


class ReferenceVIDemux(live_demux.VIDemux):
    """:class:`VIDemux` with the old server and ``await_slab``."""

    def ensure_server(self, rank: int) -> None:
        """Start ``rank``'s VI request server unless it already runs."""
        if self._started[rank]:
            return
        self._started[rank] = True
        niu = self.cluster.niu(rank)

        def server():
            while True:
                xfer = yield from niu.vi_serve_request()
                xfer = yield from niu.vi_wait_complete(xfer.xid)
                # transfer id encodes (slot, round) in its low bits;
                # timing-only transfers carry no rider
                data = b"" if xfer.data is None else bytes(xfer.data)
                self.arrived[rank][(xfer.src, xfer.xid & 0xFFF)] = data
                self.signals[rank].fire()

        self.cluster.engine.process(
            server(), name=f"vi-server[rank{rank}]", daemon=True
        )

    def await_slab(self, rank: int, src: int, tag: int):
        """Process: block until the (src, tag) slab has landed."""
        while (src, tag) not in self.arrived[rank]:
            yield self.signals[rank].wait()
        return self.arrived[rank].pop((src, tag))


class ReferenceReliableNIU(live_reliable.ReliableNIU):
    """:class:`ReliableNIU` with the old receive-flow lookup and ``recv``."""

    def _rx_flow(self, src: int) -> _RxFlow:
        flow = self._rx.get(src)
        if flow is None:
            flow = _RxFlow()
            self._rx[src] = flow
        return flow

    def _handle_data(self, pkt: Packet) -> None:
        seq = pkt.payload_words[0]
        flow = self._rx_flow(pkt.src)
        if seq == flow.expected:
            flow.expected += 1
            flow.last_nacked = -1
            self._accept_fragment(pkt)
            self._send_control(pkt.src, TAG_RACK, flow.expected)
        elif seq < flow.expected:
            # a retransmit of something we already have: re-ack so the
            # sender's window can advance past the lost original ACK
            self.duplicates_dropped += 1
            self._send_control(pkt.src, TAG_RACK, flow.expected)
        else:
            # gap: a packet was lost; go-back-N discards and NACKs once
            self.out_of_order_dropped += 1
            if flow.last_nacked != flow.expected:
                flow.last_nacked = flow.expected
                tr = obs_trace.TRACER
                if tr is not None:
                    tr.instant(
                        "niu", f"node{self.niu.node_id}", "nack",
                        self.engine.now, cat="reliable",
                        args={"src": pkt.src, "expected": flow.expected, "got": seq},
                    )
                self._send_control(pkt.src, TAG_RNACK, flow.expected)

    def recv(self, channel: int = 0):
        """Process: next in-order message on ``channel`` (CPU pays the
        mmap reads, as in :meth:`StarTX.pio_recv`)."""
        msg: Message = yield self.channel(channel).get()
        nbytes = max(len(msg.data), 8)
        cost = PIO_COST_MODEL.accesses(nbytes) * pci.MMAP_READ_LATENCY
        self.niu.pci.total_mmap_reads += PIO_COST_MODEL.accesses(nbytes)
        yield self.engine.timeout(cost)
        return msg


#: live class -> its old counterpart
_SWAP = {
    live_process.BaseEvent: BaseEvent,
    live_process.Timeout: Timeout,
    live_process.AllOf: AllOf,
    live_process.AnyOf: AnyOf,
    live_process.Process: Process,
    live_resources.Store: Store,
    live_resources.PriorityStore: PriorityStore,
    live_resources.Resource: Resource,
    live_resources.Signal: Signal,
    live_startx.StarTX: ReferenceStarTX,
    live_demux.VIDemux: ReferenceVIDemux,
    live_reliable.ReliableNIU: ReferenceReliableNIU,
}


def install(monkeypatch) -> None:
    """Run everything built from here on on the old layer: every name a
    ``repro`` module binds to a live class above is rebound (undone with
    ``monkeypatch``)."""
    swap = {id(live): old for live, old in _SWAP.items()}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                old = swap.get(id(value))
                if old is not None:
                    monkeypatch.setattr(module, attr, old)
