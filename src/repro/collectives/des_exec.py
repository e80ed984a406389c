"""Packet-level DES execution of communication phases.

:func:`start_ranks` starts the rank processes of every communication
phase run on the DES cluster — collective schedules, the SPMD halo
exchange (:class:`~repro.parallel.des_spmd.DESExchanger`), the recovery
manager's checkpoint/restore barrier.  A :class:`Phase` is rounds of
``(src, dst, nbytes)`` sends plus an optional payload per send; each
rank posts its sends of a round in order, then awaits its receives, over
one of two wires:

* **raw** — single PIO packets for <= 88 B payloads with the shared
  ``GSUM_SW_COST`` poll loop, VI block transfers beyond through the
  shared :class:`~repro.niu.demux.VIDemux`, the receiver's PCI pull
  billed.  The paper's loss-free fabric: a lost packet stalls the phase
  and the engine's watchdog names the blocked ranks.
* **reliable** — every message through a
  :class:`~repro.niu.reliable.ReliableMailbox` (go-back-N), so injected
  loss and corruption are masked and the phase stays bit-exact.

Both wires key a message by sending rank, phase (the caller's count of
its phases), round and slot — the send's place among its sender's sends
to the same node in the round, so two slabs from one neighbour are told
apart by position, never by arrival order.  The caller drives the
engine.  Two executors over a
:class:`~repro.collectives.schedules.Schedule` sit on top:

* :func:`des_time_schedule` — the *timing* path: zero-filled raw
  traffic (the Fig. 8 butterfly global sum is ``allreduce_butterfly(n,
  8)`` run here); what the autotuner cross-validates against.
* :func:`des_run_schedule` — the *data* path: the schedule's logical
  items (see :mod:`repro.collectives.semantics`) ride the reliable wire,
  so the run survives injected faults and still finishes **bit-exact**:
  reductions apply the canonical fold order, never arrival order.

Every rank round emits an ``obs`` trace span (pid ``collectives``) when
a tracer is installed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hardware.cluster import HyadesCluster
from repro.network.overheads import (
    GSUM_SW_COST,
    SMALL_MSG_MAX_BYTES,
    TRANSFER_BANDWIDTH,
    TRANSFER_OVERHEAD,
)
from repro.network.packet import MAX_PAYLOAD_WORDS, Priority, WORD_BYTES
from repro.niu.demux import VIDemux
from repro.niu.reliable import ReliableMailbox
from repro.obs import trace as obs_trace

from .schedules import Schedule
from .semantics import ItemStore

#: Raw PIO sends are tagged 0x600 | round to stay clear of the exchange
#: (< 0x400) and reliable-layer (0x7Fx) tags; the slot rides in word 0.
_PIO_TAG_BASE = 0x600

Round = Tuple[Sequence[int], Sequence[int], Sequence[int]]


def check_reliable_ranks(n: int) -> None:
    """Raise unless ``n`` ranks fit the reliable tag: sending rank (6
    bits) | phase parity (1) | round (8) | slot (1)."""
    if n > 64:
        raise ValueError(
            "the reliable wire carries at most 64 ranks (the sending rank "
            f"rides in 6 tag bits), got {n}"
        )


def wire_rounds(schedule: Schedule) -> List[Round]:
    """``schedule``'s rounds as ``(src, dst, nbytes)`` lists, from its
    wire (``columns``): timing never reads ``.rounds`` (items, ``Send``s)."""
    col = schedule.columns
    b = col.bounds.tolist()
    src, dst, nbytes = col.src.tolist(), col.dst.tolist(), col.nbytes.tolist()
    return [(src[lo:hi], dst[lo:hi], nbytes[lo:hi]) for lo, hi in zip(b, b[1:])]


class Phase(NamedTuple):
    """Rounds of sends, numbered ``j`` across the phase in column order.

    ``payload(j)`` returns the bytes send ``j`` carries; it is called
    when the sending rank reaches the send, so it reads that rank's data
    as of its round (without it: zero-filled messages of ``nbytes``).
    ``absorb(j, data)`` hands the receiving rank what send ``j``
    delivered.  A send to oneself is a local ``absorb``, no message.
    ``label`` names the rank processes and trace spans.
    """

    label: str
    rounds: Sequence[Round]
    payload: Optional[Callable[[int], Optional[bytes]]] = None
    absorb: Optional[Callable[[int, Optional[bytes]], None]] = None


def _raw_wire(cluster, n: int, seq: int, uses_vi: bool):
    """``(attach, send, recv)`` of the raw wire.  ``seq`` rides in the VI
    transfer ids, which an NIU remembers once served: a phase reusing a
    recent one would see the old transfer complete at once."""
    eng, demux = cluster.engine, VIDemux.of(cluster)
    pio_stash: List[Dict[tuple, object]] = [{} for _ in range(n)]

    def xid(src, rnd, slot):
        # seq (8) | sending rank (12) | slot (1) | round (11; a round of
        # one send per pair may run past it); the demux matches sender +
        # low 12 bits
        return (seq << 24) | (src << 12) | (slot << 11) | rnd

    def attach(rank):
        if uses_vi:
            demux.ensure_server(rank)

    def send(me, dst, nbytes, rnd, slot, data):
        niu = cluster.niu(me)
        if max(nbytes, 8) <= SMALL_MSG_MAX_BYTES:
            words = [0] * min(
                max(math.ceil(max(nbytes, 8) / WORD_BYTES), 2), MAX_PAYLOAD_WORDS
            )
            words[0] = slot
            yield from niu.pio_send(
                dst, words, tag=_PIO_TAG_BASE | (rnd & 0x1FF),
                priority=Priority.LOW, data=data,
            )
        else:
            yield from niu.vi_send(dst, nbytes, data=data, xid=xid(me, rnd, slot))

    def recv(me, src, nbytes, rnd, slot):
        if max(nbytes, 8) <= SMALL_MSG_MAX_BYTES:
            niu, stash = cluster.niu(me), pio_stash[me]
            want = (_PIO_TAG_BASE | (rnd & 0x1FF), src, slot)
            while want not in stash:
                # software poll/loop cost, then block for a packet
                yield eng.timeout(GSUM_SW_COST)
                pkt = yield from niu.pio_recv()
                stash[(pkt.tag, pkt.src, pkt.payload_words[0])] = pkt
            return stash.pop(want).data
        data = yield from demux.await_slab(me, src, xid(src, rnd, slot) & 0xFFF)
        # the NIU's VI path bills only the sender's DMA; the receiver's
        # PCI pull serializes against its own traffic (Section 4.1: one
        # transfer saturates the bus), so bill it here with the shared
        # leg cost
        yield eng.timeout(TRANSFER_OVERHEAD + max(nbytes, 8) / TRANSFER_BANDWIDTH)
        return data

    return attach, send, recv


def _reliable_wire(mailbox: ReliableMailbox, seq: int, node):
    """``(attach, send, recv)`` of the reliable wire; the sending rank in
    the tag keeps messages apart when a crash remap puts two ranks on
    one node."""

    def tag(src, rnd, slot):
        return (src << 10) | ((seq & 1) << 9) | (rnd << 1) | slot

    def attach(rank):
        mailbox.ensure(node(rank))

    def send(me, dst, nbytes, rnd, slot, data):
        yield from mailbox.send(node(me), node(dst), tag(me, rnd, slot), data or b"")

    def recv(me, src, nbytes, rnd, slot):
        return (yield from mailbox.recv(node(me), tag(src, rnd, slot)))

    return attach, send, recv


def start_ranks(
    cluster: HyadesCluster,
    phase: Phase,
    n: int,
    mailbox: Optional[ReliableMailbox] = None,
    seq: int = 0,
    node_of: Optional[Callable[[int], int]] = None,
    delay: Optional[Sequence[float]] = None,
):
    """Start the processes of ranks ``0..n-1`` walking ``phase``.

    The wire is raw, or reliable through ``mailbox`` with ranks placed
    by ``node_of`` (identity when omitted).  ``seq`` is the caller's
    phase number (raw callers take :meth:`VIDemux.next_phase`).
    ``delay[rank]`` seconds of local work (a disk write, say) come
    before the first round.  Returns ``(procs, done)``: ``done[rank]``
    is the rank's finish time, ``None`` while it runs.  The caller
    drives the engine.
    """
    eng = cluster.engine
    node = node_of or (lambda rank: rank)
    src: List[int] = []
    dst: List[int] = []
    nbytes: List[int] = []
    slot: List[int] = []
    # per round ({src: its sends}, {dst: its receives}) in column order:
    # one pass, where a scan per rank is quadratic in the ranks
    plan: List[Tuple[Dict[int, list], Dict[int, list]]] = []
    for r_src, r_dst, r_nbytes in phase.rounds:
        posts: Dict[int, list] = {}
        awaits: Dict[int, list] = {}
        seen: Dict[tuple, int] = {}
        for j, (s, d) in enumerate(zip(r_src, r_dst), len(src)):
            key = (s, node(d))
            seen[key] = seen.get(key, -1) + 1
            slot.append(seen[key])
            posts.setdefault(s, []).append(j)
            if s != d:
                awaits.setdefault(d, []).append(j)
        src += r_src
        dst += r_dst
        nbytes += r_nbytes
        plan.append((posts, awaits))
    if mailbox is None:
        uses_vi = any(nb > SMALL_MSG_MAX_BYTES for nb in nbytes)
        attach, send, recv = _raw_wire(cluster, n, seq, uses_vi)
    else:
        check_reliable_ranks(n)
        if len(plan) > 256 or max(slot, default=0) > 1:
            raise ValueError(
                "the reliable wire carries at most 256 rounds of at most 2 "
                "sends per rank pair"
            )
        attach, send, recv = _reliable_wire(mailbox, seq, node)
    payload, absorb, label = phase.payload, phase.absorb, phase.label
    done: List[Optional[float]] = [None] * n

    def rank(me: int):
        if delay is not None and delay[me]:
            yield eng.timeout(delay[me])
        for i, (posts, awaits) in enumerate(plan):
            t0 = eng.now
            for j in posts.get(me, ()):
                data = payload(j) if payload is not None else None
                if dst[j] == me:
                    absorb(j, data)
                else:
                    yield from send(me, dst[j], nbytes[j], i, slot[j], data)
            for j in awaits.get(me, ()):
                data = yield from recv(me, src[j], nbytes[j], i, slot[j])
                if absorb is not None:
                    absorb(j, data)
            tr = obs_trace.TRACER
            if tr is not None:
                tr.complete(
                    "collectives", f"rank{me}", f"{label}:r{i}", t0, eng.now,
                    cat="collectives",
                )
        done[me] = eng.now

    procs = {}
    for r in range(n):
        attach(r)
        procs[r] = eng.process(rank(r), name=f"{label}[rank{r}.node{node(r)}]")
    return procs, done


def _run_schedule_phase(
    cluster, schedule: Schedule, phase: Phase, mode: str, mailbox=None, seq=0
) -> float:
    """Run ``phase`` (``schedule`` as traffic) to quiescence; elapsed."""
    eng = cluster.engine
    start = eng.now
    _, done = start_ranks(cluster, phase, schedule.n, mailbox, seq)
    eng.run(watchdog=True)
    tr = obs_trace.TRACER
    if tr is not None:
        tr.complete(
            "collectives",
            mode,
            f"{schedule.op}:{schedule.algorithm}[n={schedule.n}]",
            start,
            max(done),
            cat="collectives",
            args={
                "rounds": schedule.n_rounds,
                "messages": schedule.total_messages,
                "nbytes": schedule.nbytes,
            },
        )
    return max(done) - start


def des_time_schedule(cluster: HyadesCluster, schedule: Schedule) -> float:
    """Execute a schedule's raw traffic on the DES cluster.

    Payload contents are zeros — only sizes matter — and the elapsed
    virtual seconds until every rank completes are returned.
    """
    n = schedule.n
    if n > cluster.n_nodes:
        raise ValueError(f"schedule needs {n} nodes, cluster has {cluster.n_nodes}")
    if schedule.n_rounds == 0:
        return 0.0
    phase = Phase(f"{schedule.op}:{schedule.algorithm}", wire_rounds(schedule))
    seq = VIDemux.of(cluster).next_phase()
    return _run_schedule_phase(cluster, schedule, phase, "timing", seq=seq)


def des_run_schedule(
    cluster: HyadesCluster,
    schedule: Schedule,
    inputs: Optional[Sequence] = None,
) -> Tuple[List, float]:
    """Execute a schedule *with data* over the reliable wire.

    Returns ``(per-rank results, elapsed seconds)``.  Survives any
    fault plan the go-back-N layer can mask, and the results are
    bitwise identical to :func:`repro.collectives.semantics.run_schedule`
    regardless of faults, retries or arrival order.
    """
    n = schedule.n
    if n > cluster.n_nodes:
        raise ValueError(f"schedule needs {n} nodes, cluster has {cluster.n_nodes}")
    check_reliable_ranks(n)
    if inputs is None:
        inputs = [None] * n
    stores = [ItemStore(schedule, r, inputs[r]) for r in range(n)]
    if schedule.n_rounds == 0:
        return [st.finish() for st in stores], 0.0
    sends = [s for rnd in schedule.rounds for s in rnd]
    phase = Phase(
        f"{schedule.op}:{schedule.algorithm}",
        [
            ([s.src for s in rnd], [s.dst for s in rnd], [s.nbytes for s in rnd])
            for rnd in schedule.rounds
        ],
        payload=lambda j: stores[sends[j].src].serialize(sends[j].items),
        absorb=lambda j, data: stores[sends[j].dst].absorb(data),
    )
    mailbox = ReliableMailbox(cluster, "coll-data")
    elapsed = _run_schedule_phase(cluster, schedule, phase, "data", mailbox)
    return [st.finish() for st in stores], elapsed
