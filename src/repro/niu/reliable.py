"""End-to-end reliable delivery over the StarT-X PIO path.

The Arctic fabric drops corrupted packets at the first CRC stage and
(under fault injection) may lose whole packets on a link.  This layer
restores exactly-once, in-order delivery with the classic go-back-N
protocol, mapped onto the paper's hardware:

* **Per-destination sequence numbers.**  Every (sender, receiver) pair
  is one flow; DATA fragments carry a monotonically increasing sequence
  number, so the fabric's per-path FIFO guarantee means a gap at the
  receiver can only be a loss.
* **Receiver-side ACK/NACK on the HIGH-priority network.**  In-order
  fragments are acknowledged cumulatively; an out-of-order fragment
  triggers a single NACK naming the expected sequence number (fast
  retransmit).  Control packets ride :class:`~repro.network.packet.Priority`
  HIGH, so they can never be blocked behind the bulk data they
  acknowledge.
* **Sender timeout with exponential backoff and bounded retransmit.**
  A flow that makes no progress within the RTO retransmits its whole
  outstanding window and doubles the RTO; after ``MAX_RETRIES``
  consecutive fruitless rounds it raises :class:`DeliveryError` — a
  structured failure, never a silent hang.

Every retransmission goes through :meth:`StarTX.pio_send`, so its CPU
cost (mmap register writes) and wire cost (serialization, contention)
are charged through the existing DES cost model: recovery shows up
honestly in the virtual clock.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.network.packet import MAX_PAYLOAD_WORDS, Packet, Priority, WORD_BYTES
from repro.niu import pci
from repro.niu.startx import PIO_COST_MODEL, StarTX
from repro.obs import trace as obs_trace
from repro.sim import AnyOf, Resource, Signal, Store

# Reserved tags, below the VI tags (0x7FD..0x7FF).
TAG_RDATA = 0x7FC
TAG_RACK = 0x7FB
TAG_RNACK = 0x7FA

#: Framing words per DATA fragment:
#: seq, chan|tag, msgid, offset, total, frag, epoch.
_HEADER_WORDS = 7
#: Payload bytes per DATA fragment (the rest of the 22-word packet).
FRAG_BYTES = (MAX_PAYLOAD_WORDS - _HEADER_WORDS) * WORD_BYTES

#: Go-back-N window: unacknowledged DATA fragments per flow.
WINDOW = 8
#: Retransmit timeout: ``BASE_RTO * BACKOFF**retries``, capped at
#: ``MAX_RTO``; past ``MAX_RETRIES`` fruitless rounds the flow raises
#: :class:`DeliveryError`.
BASE_RTO = 50e-6
BACKOFF = 2.0
MAX_RTO = 2e-3
MAX_RETRIES = 16


class DeliveryError(RuntimeError):
    """Retransmit budget exhausted: the flow cannot make progress.

    Carries the structured failure context so callers (exchange,
    collectives, the coupler) can report *which* flow died rather than
    hanging forever.
    """

    def __init__(self, src: int, dst: int, base_seq: int, attempts: int, outstanding: int) -> None:
        self.src = src
        self.dst = dst
        self.base_seq = base_seq
        self.attempts = attempts
        self.outstanding = outstanding
        super().__init__(
            f"reliable delivery {src}->{dst} gave up at seq {base_seq} "
            f"after {attempts} retransmit rounds ({outstanding} packets outstanding)"
        )


@dataclass
class Message:
    """One delivered application message."""

    src: int
    tag: int
    data: bytes
    channel: int = 0


@dataclass
class _TxEntry:
    seq: int
    words: list
    rider: Optional[bytes]


@dataclass
class _TxFlow:
    """Sender-side state for one destination."""

    dst: int
    next_seq: int = 0
    base: int = 0
    next_msgid: int = 0
    retries: int = 0
    nack_pending: bool = False
    unacked: Deque[_TxEntry] = field(default_factory=deque)
    lock: Optional[Resource] = None
    ack_signal: Optional[Signal] = None


@dataclass
class _RxFlow:
    """Receiver-side state for one source."""

    expected: int = 0
    last_nacked: int = -1


@dataclass
class _Reassembly:
    tag: int
    channel: int
    total: int
    buf: bytearray
    received: int = 0


class ReliableNIU:
    """The reliable-delivery layer bound to one :class:`StarTX` NIU.

    Use :func:`get_reliable` to obtain the (single) layer for an NIU —
    the layer owns the NIU's receive hook, so there must be exactly one.

    Multiple independent clients multiplex over *channels*: a channel id
    is carried in every fragment and completed messages are delivered to
    that channel's queue, so e.g. two exchangers sharing a cluster never
    steal each other's traffic.
    """

    def __init__(self, niu: StarTX) -> None:
        if niu.rx_hook is not None:
            raise RuntimeError(
                f"node {niu.node_id}: NIU already has a receive hook installed"
            )
        self.niu = niu
        self.engine = niu.engine
        self._tx: Dict[int, _TxFlow] = {}
        self._rx: Dict[int, _RxFlow] = defaultdict(_RxFlow)
        self._partial: Dict[Tuple[int, int], _Reassembly] = {}
        self._channels: Dict[int, Store] = {}
        #: Incarnation number: every frame and control packet carries
        #: it, and traffic from a different epoch is dropped on receive.
        #: :meth:`fence` bumps it across a whole cluster after a crash,
        #: so stale retransmissions from an aborted round (or from a dead
        #: node's old incarnation) can never corrupt the restarted run.
        self.epoch = 0
        # counters (exposed via stats())
        self.data_packets_sent = 0
        self.data_packets_received = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.nacks_sent = 0
        self.nacks_received = 0
        self.duplicates_dropped = 0
        self.out_of_order_dropped = 0
        self.messages_delivered = 0
        self.stale_epoch_dropped = 0
        self.fences = 0
        niu.rx_hook = self._on_rx

    # -- flow bookkeeping ----------------------------------------------

    def _tx_flow(self, dst: int) -> _TxFlow:
        flow = self._tx.get(dst)
        if flow is None:
            flow = _TxFlow(
                dst=dst,
                lock=Resource(self.engine),
                ack_signal=Signal(
                    self.engine, name=f"ack[{self.niu.node_id}->{dst}]"
                ),
            )
            self._tx[dst] = flow
        return flow

    def channel(self, cid: int) -> Store:
        """The delivery queue for channel ``cid`` (created on demand)."""
        store = self._channels.get(cid)
        if store is None:
            store = Store(
                self.engine, name=f"rdeliver[node{self.niu.node_id}.ch{cid}]"
            )
            self._channels[cid] = store
        return store

    # -- receive path (called from the NIU delivery callback) ----------

    def _on_rx(self, pkt: Packet) -> bool:
        if pkt.tag == TAG_RACK:
            if pkt.payload_words[1] != self.epoch:
                self.stale_epoch_dropped += 1
                return True
            self.acks_received += 1
            self._handle_ack(pkt.src, pkt.payload_words[0])
            return True
        if pkt.tag == TAG_RNACK:
            if pkt.payload_words[1] != self.epoch:
                self.stale_epoch_dropped += 1
                return True
            self.nacks_received += 1
            self._handle_nack(pkt.src, pkt.payload_words[0])
            return True
        if pkt.tag == TAG_RDATA:
            if pkt.payload_words[6] != self.epoch:
                self.stale_epoch_dropped += 1
                return True
            self.data_packets_received += 1
            self._handle_data(pkt)
            return True
        return False

    def _handle_ack(self, src: int, value: int) -> None:
        flow = self._tx_flow(src)
        progressed = False
        while flow.unacked and flow.unacked[0].seq < value:
            flow.unacked.popleft()
            progressed = True
        if progressed:
            flow.base = max(flow.base, value)
            flow.ack_signal.fire()

    def _handle_nack(self, src: int, expected: int) -> None:
        flow = self._tx_flow(src)
        if flow.unacked and flow.unacked[0].seq == expected:
            flow.nack_pending = True
            flow.ack_signal.fire()

    def _handle_data(self, pkt: Packet) -> None:
        seq = pkt.payload_words[0]
        flow = self._rx[pkt.src]
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

    def _accept_fragment(self, pkt: Packet) -> None:
        (
            _seq,
            chan_tag,
            msgid,
            offset,
            total,
            nfrag,
            _epoch,
        ) = pkt.payload_words[:_HEADER_WORDS]
        key = (pkt.src, msgid)
        asm = self._partial.get(key)
        if asm is None:
            asm = _Reassembly(
                tag=chan_tag & 0xFFFF,
                channel=chan_tag >> 16,
                total=total,
                buf=bytearray(total),
            )
            self._partial[key] = asm
        if pkt.data is not None and nfrag:
            asm.buf[offset : offset + nfrag] = pkt.data
        asm.received += nfrag
        if asm.received >= asm.total:
            del self._partial[key]
            self.messages_delivered += 1
            self.channel(asm.channel).try_put(
                Message(src=pkt.src, tag=asm.tag, data=bytes(asm.buf), channel=asm.channel)
            )

    def _send_control(self, dst: int, tag: int, value: int) -> None:
        """Fire-and-forget HIGH-priority control packet (hardware ack
        engine: runs as its own process, off the application CPU)."""
        if tag == TAG_RACK:
            self.acks_sent += 1
        else:
            self.nacks_sent += 1
        epoch = self.epoch  # stamp the epoch at the moment of the ack

        def ctrl():
            yield from self.niu.pio_send(
                dst, [value, epoch], tag=tag, priority=Priority.HIGH
            )

        self.engine.process(
            ctrl(), name=f"rctl[{self.niu.node_id}->{dst}]", daemon=True
        )

    # -- send path ------------------------------------------------------

    def send(self, dst: int, tag: int, data: bytes = b"", channel: int = 0):
        """Process: reliably deliver ``data`` to ``dst`` on ``channel``.

        Blocks (in virtual time) until every fragment has been
        acknowledged, so a completed ``send`` implies delivery.  Raises
        :class:`DeliveryError` when the retransmit budget is exhausted.
        """
        if not (0 <= tag <= 0xFFFF):
            raise ValueError("reliable tag must fit in 16 bits")
        if not (0 <= channel <= 0xFFFF):
            raise ValueError("channel id must fit in 16 bits")
        flow = self._tx_flow(dst)
        yield flow.lock.acquire()
        try:
            msgid = flow.next_msgid
            flow.next_msgid += 1
            total = len(data)
            chan_tag = (channel << 16) | tag
            offsets = range(0, total, FRAG_BYTES) if total else (0,)
            for offset in offsets:
                while len(flow.unacked) >= WINDOW:
                    yield from self._await_progress(flow)
                chunk = data[offset : offset + FRAG_BYTES]
                words = [
                    flow.next_seq,
                    chan_tag,
                    msgid,
                    offset,
                    total,
                    len(chunk),
                    self.epoch,
                ]
                words += [0] * math.ceil(len(chunk) / WORD_BYTES)
                entry = _TxEntry(seq=flow.next_seq, words=words, rider=bytes(chunk) or None)
                flow.next_seq += 1
                flow.unacked.append(entry)
                self.data_packets_sent += 1
                yield from self._transmit(flow, entry)
            while flow.unacked:
                yield from self._await_progress(flow)
        finally:
            flow.lock.release()

    def _transmit(self, flow: _TxFlow, entry: _TxEntry):
        yield from self.niu.pio_send(
            flow.dst,
            entry.words,
            tag=TAG_RDATA,
            priority=Priority.LOW,
            data=entry.rider,
        )

    def _await_progress(self, flow: _TxFlow):
        """Process: wait for the window to advance; retransmit on RTO or
        NACK; give up (structured error) past the retry budget."""
        base_before = flow.base
        rto = min(BASE_RTO * (BACKOFF ** flow.retries), MAX_RTO)
        yield AnyOf(
            self.engine, [flow.ack_signal.wait(), self.engine.timeout(rto)]
        )
        if flow.base > base_before:
            flow.retries = 0
            return
        if flow.nack_pending:
            flow.nack_pending = False
        flow.retries += 1
        if flow.retries > MAX_RETRIES:
            raise DeliveryError(
                src=self.niu.node_id,
                dst=flow.dst,
                base_seq=flow.unacked[0].seq if flow.unacked else flow.base,
                attempts=flow.retries - 1,
                outstanding=len(flow.unacked),
            )
        tr = obs_trace.TRACER
        if tr is not None and flow.unacked:
            tr.instant(
                "niu", f"node{self.niu.node_id}", "retransmit",
                self.engine.now, cat="reliable",
                args={
                    "dst": flow.dst,
                    "base_seq": flow.unacked[0].seq,
                    "outstanding": len(flow.unacked),
                    "attempt": flow.retries,
                },
            )
        for entry in list(flow.unacked):
            self.retransmissions += 1
            yield from self._transmit(flow, entry)

    # -- epoch fencing ---------------------------------------------------

    def fence(self, epoch: int) -> None:
        """Enter a new incarnation: discard every in-progress flow.

        Called by the crash-recovery runtime on all surviving nodes (at
        the same virtual instant) after a node failure is declared:

        * transmit flows are dropped — unacked frames of the aborted
          round will never be retried (their senders were interrupted);
        * receive flows and partial reassemblies are dropped — the
          restarted round begins at sequence 0 on every pair;
        * delivered-but-unconsumed messages are purged from the channel
          queues (blocked consumers stay subscribed);
        * the epoch bumps, so any stale frame, retransmission, ACK or
          NACK from the old incarnation still in flight is counted in
          ``stale_epoch_dropped`` and ignored.
        """
        if epoch <= self.epoch:
            raise ValueError(
                f"fence epoch must increase: {epoch} <= current {self.epoch}"
            )
        self.epoch = epoch
        self.fences += 1
        self._tx.clear()
        self._rx.clear()
        self._partial.clear()
        for store in self._channels.values():
            store.clear()

    # -- receive API -----------------------------------------------------

    def recv(self, channel: int = 0):
        """Process: next in-order message on ``channel`` (CPU pays the
        mmap reads, as in :meth:`StarTX.pio_recv`)."""
        msg: Message = yield self.channel(channel).get()
        accesses = PIO_COST_MODEL.accesses(max(len(msg.data), 8))
        self.niu.pci.total_mmap_reads += accesses
        yield self.engine.timeout(accesses * pci.MMAP_READ_LATENCY)
        return msg

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """All protocol counters, for the run report."""
        return {
            "data_sent": self.data_packets_sent,
            "data_received": self.data_packets_received,
            "retransmissions": self.retransmissions,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "nacks_sent": self.nacks_sent,
            "nacks_received": self.nacks_received,
            "duplicates_dropped": self.duplicates_dropped,
            "out_of_order_dropped": self.out_of_order_dropped,
            "messages_delivered": self.messages_delivered,
            "stale_epoch_dropped": self.stale_epoch_dropped,
            "fences": self.fences,
        }


def get_reliable(niu: StarTX) -> ReliableNIU:
    """The reliable layer for ``niu``, creating it on first use; the
    layer owns the NIU's receive hook."""
    layer = getattr(niu, "_reliable_layer", None)
    if layer is None:
        layer = niu._reliable_layer = ReliableNIU(niu)
    return layer


def allocate_channel(cluster) -> int:
    """A channel id no other client of ``cluster`` holds, so clients
    sharing it (the isomorphs' exchangers, the recovery manager, a
    collective run) never consume each other's messages."""
    counter = getattr(cluster, "_rel_channels", None)
    if counter is None:
        counter = cluster._rel_channels = itertools.count(1)
    return next(counter)


class ReliableMailbox:
    """One client's own channel plus, per :meth:`ensure`d node, a
    consumer daemon filing every arrival under its tag.

    Arrivals are stashed per *node* — after a crash remap two ranks may
    share one, so callers embed the sending rank in the tag — and in
    deques, not single slots: a fast sender's next message must not
    overwrite an unconsumed one under the same tag.
    """

    def __init__(self, cluster, label: str) -> None:
        self.cluster = cluster
        self.label = label
        self.channel = allocate_channel(cluster)
        self._stash: Dict[int, Dict[int, deque]] = {}
        self._signals: Dict[int, Signal] = {}

    def ensure(self, node: int) -> None:
        """Start ``node``'s consumer daemon (idempotent)."""
        if node in self._stash:
            return
        engine = self.cluster.engine
        stash = self._stash[node] = {}
        signal = self._signals[node] = Signal(
            engine, name=f"{self.label}-arrivals[node{node}]"
        )
        rniu = get_reliable(self.cluster.niu(node))

        def consumer():
            while True:
                msg = yield from rniu.recv(channel=self.channel)
                stash.setdefault(msg.tag, deque()).append(msg.data)
                signal.fire()

        engine.process(
            consumer(),
            name=f"{self.label}-consumer[node{node}.ch{self.channel}]",
            daemon=True,
        )

    def send(self, src: int, dst: int, tag: int, data: bytes = b""):
        """Process: deliver ``data`` from node ``src`` to node ``dst``."""
        yield from get_reliable(self.cluster.niu(src)).send(
            dst, tag=tag, data=data, channel=self.channel
        )

    def recv(self, node: int, tag: int):
        """Process: block until a ``tag`` message has landed at the
        :meth:`ensure`d ``node``; returns its data."""
        stash = self._stash[node]
        while not stash.get(tag):
            yield self._signals[node].wait()
        q = stash[tag]
        data = q.popleft()
        if not q:
            del stash[tag]
        return data

    def clear(self) -> None:
        """Drop every stashed arrival (an aborted round's leftovers)."""
        for stash in self._stash.values():
            stash.clear()
