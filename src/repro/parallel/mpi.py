"""A small general-purpose message-passing layer over StarT-X.

The paper (Section 6) notes Hyades also carries general-purpose,
high-level interfaces — MPI-StarT [18] — "that can make use of the
high-performance interconnect", but argues an application-specific
cluster has "little reason to give up any performance for an API that
is more general than required".  This module makes that trade
measurable: an MPI-flavoured layer (matched send/recv with tags,
collectives built from point-to-point) running message-by-message on
the discrete-event cluster, to compare against the tailored exchange
and butterfly global sum.

Costs of generality modelled here (each grounded in how real MPI-1
implementations over user-level NICs worked):

* **matching** — receives match (source, tag) against an unexpected-
  message queue: a constant software cost per message on both sides;
* **eager buffering** — payloads are copied through a bounce buffer at
  the memory-copy bandwidth instead of DMA'd in place;
* **rendezvous** — messages above ``eager_threshold`` negotiate a
  round trip before the data moves (as VI does), *plus* the matching
  and copy costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.hardware.cluster import HyadesCluster
from repro.network.overheads import COPY_BANDWIDTH
from repro.network.packet import Packet, Priority
from repro.niu import pci
from repro.niu.startx import VI_FRAG_BYTES
from repro.sim import Signal

#: Software cost to traverse the MPI matching/progress engine, per
#: message per side (mid-1990s MPICH-class stacks on 400 MHz CPUs).
MPI_MATCH_COST = 3.0e-6
#: Copy through the eager bounce buffer (one per side) — the same
#: strided memory-system path as the halo pack (shared constant).
MPI_COPY_BANDWIDTH = COPY_BANDWIDTH
#: Messages above this negotiate rendezvous (classic MPICH default).
MPI_EAGER_THRESHOLD = 1024
#: Tag bases of the collectives' rounds, clear of user point-to-point tags.
TAG_BARRIER, TAG_ALLREDUCE, TAG_BCAST = 0x6FF, 0x680, 0x690


@dataclass
class MPIMessage:
    """One matched message (envelope + functional payload)."""

    source: int
    tag: int
    nbytes: int
    data: Any = None


class MPIComm:
    """An MPI-like communicator over the DES cluster's NIUs.

    All methods are generator processes to be driven with ``yield from``
    inside rank processes.  Semantics: blocking standard-mode send and
    receive with (source, tag) matching; collectives composed from
    point-to-point exactly as a portable MPI-1 layer would.
    """

    #: Reserved user tag for the transport layer (distinct from VI tags).
    TRANSPORT_TAG = 0x700

    def __init__(self, cluster: HyadesCluster, n_ranks: Optional[int] = None) -> None:
        self.cluster = cluster
        self.n_ranks = n_ranks or cluster.n_nodes
        if self.n_ranks > cluster.n_nodes:
            raise ValueError("more ranks than cluster nodes")
        self.engine = cluster.engine
        # unexpected-message queues + arrival signals per rank
        self._inbox: Dict[int, list[MPIMessage]] = {r: [] for r in range(self.n_ranks)}
        self._arrival: Dict[int, Signal] = {
            r: Signal(self.engine) for r in range(self.n_ranks)
        }
        self._drainers_started = [False] * self.n_ranks

    # -- transport ---------------------------------------------------------

    def _ensure_drainer(self, rank: int) -> None:
        """Per-rank progress engine: drains NIU PIO rx into the inbox."""
        if self._drainers_started[rank]:
            return
        self._drainers_started[rank] = True
        niu = self.cluster.niu(rank)

        pending: Dict[tuple, int] = {}

        def drainer():
            while True:
                pkt: Packet = yield niu.pio_rx.get()
                # progress-engine cost: header inspection + match attempt
                yield self.engine.timeout(MPI_MATCH_COST)
                if pkt.tag != self.TRANSPORT_TAG:
                    continue  # rendezvous RTS, handled by the cost model
                src, tag, nbytes, seq, total = pkt.payload_words[:5]
                key = (src, tag, nbytes, total)
                got = pending.get(key, 0) + 1
                if got < total:
                    pending[key] = got
                    continue  # wait for the remaining fragments
                pending.pop(key, None)
                # FIFO per (src, dst) pair: the last fragment carries the
                # functional payload rider
                self._inbox[rank].append(
                    MPIMessage(source=src, tag=tag, nbytes=nbytes, data=pkt.data)
                )
                self._arrival[rank].fire()

        self.engine.process(drainer())

    def send(self, source: int, dest: int, nbytes: int, tag: int = 0, data: Any = None):
        """Process: blocking standard-mode send."""
        if not (0 <= dest < self.n_ranks):
            raise ValueError(f"bad destination rank {dest}")
        niu = self.cluster.niu(source)
        # matching/envelope construction
        yield self.engine.timeout(MPI_MATCH_COST)
        # eager copy through the bounce buffer
        yield self.engine.timeout(nbytes / MPI_COPY_BANDWIDTH)
        if nbytes > MPI_EAGER_THRESHOLD:
            # rendezvous: request-to-send / clear-to-send round trip
            yield from niu.pio_send(
                dest, [source, tag, nbytes, 0, 0], tag=self.TRANSPORT_TAG + 1,
                priority=Priority.HIGH,
            )
            yield self.engine.timeout(2 * pci.MMAP_READ_LATENCY)  # poll the CTS
        # stream the payload as max-size packets (wire-level fragmentation)
        frags = max(1, -(-nbytes // VI_FRAG_BYTES))
        for i in range(frags):
            rider = data if i == frags - 1 else None
            yield from niu.pio_send(
                dest,
                [source, tag, nbytes, i, frags],
                tag=self.TRANSPORT_TAG,
                data=rider,
            )

    def recv(self, rank: int, source: Optional[int] = None, tag: Optional[int] = None):
        """Process: blocking receive matching (source, tag); returns
        the :class:`MPIMessage`."""
        self._ensure_drainer(rank)
        while True:
            inbox = self._inbox[rank]
            for i, msg in enumerate(inbox):
                if (source is None or msg.source == source) and (
                    tag is None or msg.tag == tag
                ):
                    inbox.pop(i)
                    # receive-side bounce-buffer copy
                    yield self.engine.timeout(msg.nbytes / MPI_COPY_BANDWIDTH)
                    return msg
            yield self._arrival[rank].wait()

    def sendrecv(self, rank: int, dest: int, source: int, nbytes: int, tag: int = 0, data: Any = None):
        """Process: exchange with distinct partners (no deadlock: the
        send is fire-and-forget at the transport level)."""
        yield from self.send(rank, dest, nbytes, tag=tag, data=data)
        msg = yield from self.recv(rank, source=source, tag=tag)
        return msg

    # -- collectives ---------------------------------------------------------

    def barrier(self, rank: int):
        """Process: dissemination barrier (log2 N rounds)."""
        n = self.n_ranks
        shift = 1
        while shift < n:
            partner_to = (rank + shift) % n
            partner_from = (rank - shift) % n
            yield from self.send(rank, partner_to, 8, tag=TAG_BARRIER + shift)
            yield from self.recv(rank, source=partner_from, tag=TAG_BARRIER + shift)
            shift <<= 1

    def allreduce_sum(self, rank: int, value: float):
        """Process: recursive-doubling allreduce (requires power of 2)."""
        n = self.n_ranks
        if n & (n - 1):
            raise ValueError("allreduce requires a power-of-two rank count")
        partial = float(value)
        bit = 1
        round_i = 0
        while bit < n:
            partner = rank ^ bit
            yield from self.send(rank, partner, 8, tag=TAG_ALLREDUCE + round_i, data=partial)
            msg = yield from self.recv(rank, source=partner, tag=TAG_ALLREDUCE + round_i)
            other = float(msg.data)
            partial = (partial + other) if rank < partner else (other + partial)
            bit <<= 1
            round_i += 1
        return partial

    def bcast(self, rank: int, root: int, nbytes: int, data: Any = None):
        """Process: binomial-tree broadcast; returns the payload."""
        n = self.n_ranks
        rel = (rank - root) % n
        if rel != 0:
            src = (root + (rel & (rel - 1))) % n  # clear lowest set bit
            msg = yield from self.recv(rank, source=src, tag=TAG_BCAST)
            data, nbytes = msg.data, msg.nbytes
        # forward to children: rel sends to rel + 2^k for every 2^k > rel
        bit = 1
        while bit < n:
            if bit > rel and rel + bit < n:
                yield from self.send(rank, (root + rel + bit) % n, nbytes, tag=TAG_BCAST, data=data)
            bit <<= 1
        return data
