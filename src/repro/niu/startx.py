"""The StarT-X NIU: PIO and VI message-passing mechanisms (Section 2.3).

Both mechanisms are "implemented completely in hardware" in the real NIU;
here the hardware datapaths are discrete-event processes and the CPU-side
costs (mmap register accesses) are charged to the calling process per the
PCI model of Section 2.1.

**PIO mode** — the CPU enqueues/dequeues whole packets through NIU
registers.  Sending an ``n``-word-payload message costs one 8-byte write
for the header plus one per payload word pair; receiving costs the same
in 0.93-us reads.  This reproduces Fig. 2: Os = 0.36/1.62 us and
Or = 1.86/8.37 us for 8/64-byte payloads.

**VI mode** — bulk transfers negotiated by a high-priority PIO round trip
(the 8.6-us one-time overhead of Section 4.1), then streamed by the Tx
DMA engine as maximum-size (88-byte-payload) packets at the 110 MB/s
effective PCI/DMA payload rate; the Rx DMA engine deposits fragments
directly into the receiver's pinned VI memory region.

Each message is built once: a transfer's ack and completion ``Signal``
is made on its first lookup only, a PIO access count is computed once to
charge and to count, and the wire size and CRC are read off the packet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, Optional

from repro.obs import trace as obs_trace
from repro.sim import Engine, Signal, Store
from repro.network.fabrics import Fabric
from repro.network.packet import (
    HEADER_WORDS,
    MAX_PAYLOAD_WORDS,
    Packet,
    Priority,
    WORD_BYTES,
)
from repro.niu.pci import PCIBus, PCIParams

# Reserved user tags (11-bit space).
TAG_VI_DATA = 0x7FF
TAG_VI_REQ = 0x7FE
TAG_VI_ACK = 0x7FD

#: Effective VI streaming payload bandwidth (Section 2.3: 110 MB/s peak).
VI_STREAM_BANDWIDTH = 110e6
#: Software cost, per side, to stage/post the pinned VI buffer descriptors
#: for one transfer.  Together with the negotiation round trip this
#: composes the 8.6 us one-time exchange overhead of Section 4.1.
VI_SETUP_COST = 1.0e-6
#: Max payload bytes per fragment packet (22 words).
VI_FRAG_BYTES = MAX_PAYLOAD_WORDS * WORD_BYTES
#: PIO messages the receive FIFO holds before the fabric backs up.
PIO_RX_CAPACITY = 256


@dataclass(frozen=True)
class PIOCostModel:
    """Analytic CPU costs of PIO messaging, from the PCI parameters."""

    pci: PCIParams = dc_field(default_factory=PCIParams)

    def accesses(self, payload_bytes: int) -> int:
        """8-byte register accesses per message: 1 header + payload."""
        return 1 + math.ceil(max(payload_bytes, 8) / 8)

    def os_time(self, payload_bytes: int) -> float:
        """Send overhead Os (CPU busy time)."""
        return self.accesses(payload_bytes) * self.pci.mmap_write_gap

    def or_time(self, payload_bytes: int) -> float:
        """Receive overhead Or (CPU busy time)."""
        return self.accesses(payload_bytes) * self.pci.mmap_read_latency


PIO_COST_MODEL = PIOCostModel()


class _Signals(dict):
    """Transfer id -> :class:`Signal` (named ``kind[xid=...]``), made on
    first lookup: a lookup that finds one builds nothing."""

    def __init__(self, engine: Engine, kind: str) -> None:
        super().__init__()
        self.engine, self.kind = engine, kind

    def __missing__(self, xid: int) -> Signal:
        sig = self[xid] = Signal(self.engine, name=f"{self.kind}[xid={xid}]")
        return sig


@dataclass
class VITransfer:
    """Bookkeeping for one VI-mode block transfer."""

    xid: int
    src: int
    dst: int
    nbytes: int
    received: int = 0
    data: Any = None
    start_time: float = 0.0
    end_time: float = 0.0

    @property
    def complete(self) -> bool:
        return self.received >= self.nbytes


class StarTX:
    """One StarT-X NIU attached to a fat-tree endpoint.

    The public generator methods are meant to be driven inside a CPU
    process (``yield from niu.pio_send(...)``); they charge that process
    the correct CPU time and interact with the fabric/DMA hardware.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        node_id: int,
        pci: Optional[PCIBus] = None,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.node_id = node_id
        self.pci = pci or PCIBus(engine)
        self.pio_rx: Store = Store(engine, capacity=PIO_RX_CAPACITY, name=f"pio-rx[node{node_id}]")
        self._vi_rx: Dict[int, VITransfer] = {}
        self._vi_complete = _Signals(engine, "vi-complete")
        self._vi_acks = _Signals(engine, "vi-ack")
        self._vi_requests: Store = Store(engine, name=f"vi-requests[node{node_id}]")
        self._xid_counter = itertools.count()
        self.crc_status_errors = 0
        self.packets_sent = 0
        self.packets_received = 0
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
        wire_bytes = (HEADER_WORDS + len(pkt.payload_words)) * WORD_BYTES
        self.engine.schedule(wire_bytes / self.fabric.params.link_bandwidth, self._deliver, pkt)

    def _deliver(self, pkt: Packet) -> None:
        # Endpoint CRC check: software sees only a 1-bit status.
        if pkt.corrupt or pkt.crc != pkt.compute_crc():
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
            self._vi_acks[pkt.payload_words[0]].fire(pkt)
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
        if 0 <= xfer.nbytes <= xfer.received:  # complete
            xfer.end_time = self.engine.now
            tr = obs_trace.TRACER
            if tr is not None:
                tr.complete(
                    "niu", f"node{self.node_id}", f"vi-recv xid={xid}",
                    xfer.start_time, xfer.end_time, cat="vi",
                    args={"src": xfer.src, "bytes": xfer.nbytes},
                )
            self._vi_complete[xid].fire(xfer)

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
        accesses = PIO_COST_MODEL.accesses(len(payload_words) * WORD_BYTES)
        self.pci.total_mmap_writes += accesses
        yield self.engine.timeout(accesses * self.pci.params.mmap_write_gap)
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
        accesses = PIO_COST_MODEL.accesses(len(pkt.payload_words) * WORD_BYTES)
        self.pci.total_mmap_reads += accesses
        yield self.engine.timeout(accesses * self.pci.params.mmap_read_latency)
        return pkt

    def pio_try_recv(self):
        """Process: poll for a message; returns None after one status read."""
        ok, pkt = self.pio_rx.try_get()
        if not ok:
            yield self.engine.timeout(self.pci.params.mmap_read_latency)
            return None
        cost = PIO_COST_MODEL.accesses(pkt.payload_bytes) * self.pci.params.mmap_read_latency
        yield self.engine.timeout(cost)
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
                self._vi_complete[xid].fire(existing)
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
        yield self._vi_acks[xid].wait()
        # poll the ack status + stage the VI buffer descriptors + kick the
        # Tx DMA engine (2 writes) ----------------------------------------
        yield self.engine.timeout(
            self.pci.params.mmap_read_latency + VI_SETUP_COST
            + 2 * self.pci.params.mmap_write_gap
        )
        # -- stream fragments at the effective DMA payload rate -----------
        offset = 0
        while offset < nbytes:
            frag = min(VI_FRAG_BYTES, nbytes - offset)
            yield self.engine.timeout(frag / VI_STREAM_BANDWIDTH)
            words = [xid, offset, frag] + [0] * (max(math.ceil(frag / WORD_BYTES), 3) - 3)
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
        yield self.engine.timeout(self.pci.params.mmap_read_latency)
        return xid

    def vi_serve_request(self):
        """Process (receiver CPU): accept one inbound VI request.

        Reads the request message, posts the receive buffer, and replies
        with a high-priority ack.  Returns the :class:`VITransfer`.
        """
        pkt: Packet = yield self._vi_requests.get()
        accesses = PIO_COST_MODEL.accesses(len(pkt.payload_words) * WORD_BYTES)
        yield self.engine.timeout(accesses * self.pci.params.mmap_read_latency)
        xid, nbytes = pkt.payload_words[0], pkt.payload_words[1]
        # post the receive buffer
        yield self.engine.timeout(VI_SETUP_COST)
        self.vi_expect(xid, nbytes, src=pkt.src)
        yield from self.pio_send(pkt.src, [xid, 0], tag=TAG_VI_ACK, priority=Priority.HIGH)
        return self._vi_rx[xid]

    def vi_wait_complete(self, xid: int):
        """Process (receiver CPU): block until transfer ``xid`` lands."""
        xfer = self._vi_rx.get(xid)
        if xfer is None or not xfer.complete:
            yield self._vi_complete[xid].wait()
            xfer = self._vi_rx[xid]
        # final status read
        yield self.engine.timeout(self.pci.params.mmap_read_latency)
        return xfer
