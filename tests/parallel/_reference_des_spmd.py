"""The hand-written per-rank halo exchanger, kept verbatim as the
differential oracle: its own raw and reliable rank loops, two
dissemination barriers (one over PIO with a linear-scan stash, one over
the reliable mailbox), its own slab slices and tag layouts.  The
library runs the same exchange as one :mod:`repro.collectives.des_exec`
phase (:class:`repro.parallel.des_spmd.DESExchanger`);
``test_des_spmd_equivalence.py`` holds the two equal: tiles in both
modes, and in reliable mode elapsed time, engine events and protocol
counters too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.cluster import HyadesCluster
from repro.niu.demux import VIDemux
from repro.niu.reliable import ReliableMailbox, get_reliable
from repro.parallel.tiling import Decomposition

#: Tag space for halo traffic: direction index rides in the transfer id.
_DIRECTIONS = ("west", "east", "south", "north")
_OPPOSITE = {"west": "east", "east": "west", "south": "north", "north": "south"}


def _edge_slices(decomp: Decomposition, rank: int, direction: str, width: int):
    """(send_slice, recv_slice) of a tile array for one direction.

    ``send_slice`` selects the interior strip shipped to the neighbour
    in ``direction``; ``recv_slice`` selects the halo strip filled by
    data arriving *from* that neighbour.
    """
    t = decomp.tile(rank)
    o = decomp.olx
    w = width
    rows_i = slice(o, o + t.ny)
    if direction == "west":
        return (rows_i, slice(o, o + w)), (rows_i, slice(o - w, o))
    if direction == "east":
        return (rows_i, slice(o + t.nx - w, o + t.nx)), (rows_i, slice(o + t.nx, o + t.nx + w))
    cols_f = slice(o - w, o + t.nx + w)  # y-pass spans x halos (corners)
    if direction == "south":
        return (slice(o, o + w), cols_f), (slice(o - w, o), cols_f)
    if direction == "north":
        return (slice(o + t.ny - w, o + t.ny), cols_f), (slice(o + t.ny, o + t.ny + w), cols_f)
    raise ValueError(direction)


class DESExchanger:
    """Halo exchange whose bytes travel the simulated hardware.

    With ``reliable=True`` all traffic goes through the go-back-N
    reliable-delivery layer (surviving injected faults); the default
    raw VI mode matches the paper's error-free assumption.
    """

    def __init__(
        self,
        cluster: HyadesCluster,
        decomp: Decomposition,
        reliable: bool = False,
        reliable_params: Optional[dict] = None,
        recovery=None,
    ) -> None:
        if decomp.n_ranks > cluster.n_nodes:
            raise ValueError("decomposition needs more nodes than the cluster has")
        if recovery is not None and not reliable:
            raise ValueError(
                "crash recovery requires reliable=True: raw VI transfers "
                "cannot be epoch-fenced or re-routed to a spare node"
            )
        self.cluster = cluster
        self.decomp = decomp
        self.engine = cluster.engine
        self.reliable = reliable
        self._recovery = recovery
        self._round = 0
        # out-of-order barrier packets stashed per rank (raw mode)
        self._barrier_stash: List[list] = [[] for _ in range(decomp.n_ranks)]
        if reliable:
            if decomp.n_ranks > 64:
                raise ValueError(
                    "reliable exchange supports at most 64 ranks (the "
                    "sender rank rides in the upper 6 tag bits)"
                )
            self._reliable_params = dict(reliable_params or {})
            for r in range(decomp.n_ranks):
                get_reliable(cluster.niu(self._node_of(r)), **self._reliable_params)
            # own channel: two exchangers sharing the cluster (e.g. the
            # two isomorphs of a coupled run) must not consume each
            # other's messages
            self._mailbox = ReliableMailbox(cluster, "halo")
        else:
            self._demux = VIDemux.of(cluster)
        if recovery is not None:
            recovery.adopt(self)

    # -- rank -> node placement -----------------------------------------

    def _node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (identity without recovery)."""
        if self._recovery is not None:
            return self._recovery.rankmap.node_of(rank)
        return rank

    # -- recovery hooks --------------------------------------------------

    def abort_round(self) -> None:
        """Drop every stashed arrival of the aborted round (the crash
        recovery path calls this right after epoch-fencing the layers)."""
        self._mailbox.clear()
        for stash in self._barrier_stash:
            stash.clear()

    def rebind_rank(self, rank: int) -> None:
        """Adopt ``rank``'s new placement after a crash remap: make sure
        its (possibly brand-new spare) node has a consumer daemon."""
        if not self.reliable:
            return
        node = self._node_of(rank)
        get_reliable(self.cluster.niu(node), **self._reliable_params)
        self._mailbox.ensure(node)

    # -- the exchange ---------------------------------------------------

    def exchange(self, fields: Sequence[np.ndarray], width: Optional[int] = None) -> float:
        """Run one two-pass halo exchange on the DES; returns elapsed.

        ``fields[rank]`` are tile-local arrays (2-D or 3-D), modified in
        place exactly as :func:`exchange_halos` would.

        Failure modes are structured, never silent: a retry-exhausted
        reliable flow raises :class:`repro.niu.reliable.DeliveryError`;
        a raw-mode exchange stalled by packet loss raises
        :class:`repro.sim.DeadlockError` naming the blocked ranks.
        """
        w = self.decomp.olx if width is None else width
        if w == 0:
            return 0.0
        start = self.engine.now
        self._round += 1
        done = [False] * self.decomp.n_ranks
        proc = self._rank_proc_reliable if self.reliable else self._rank_proc_raw

        procs = {}
        for r in range(self.decomp.n_ranks):
            procs[r] = self.engine.process(
                proc(r, fields, w, done), name=f"rank{r}.node{self._node_of(r)}"
            )
        mgr = self._recovery
        if mgr is None:
            self.engine.run(watchdog=True)
        else:
            # Heartbeat daemons keep the event heap alive forever, so a
            # recovery-armed exchange stops on its completion condition
            # (or on a declared failure) rather than on quiescence.
            mgr.watch(procs)
            mgr.run_phase_guarded(done, label="DES exchange")
        if not all(done):
            stuck = [r for r, d in enumerate(done) if not d]
            raise RuntimeError(f"DES exchange failed on ranks {stuck}")
        return self.engine.now - start

    def _pass_plan(self, rank: int, arr: np.ndarray, pass_dirs, w: int):
        """The sends/receives of one pass: performs periodic self-wraps
        inline, returns [(direction, neighbour, slab_bytes)] to ship."""
        out = []
        for d in pass_dirs:
            nbr = self.decomp.neighbor(rank, d)
            if nbr is None:
                continue
            send_sl, _ = _edge_slices(self.decomp, rank, d, w)
            slab = np.ascontiguousarray(arr[(Ellipsis,) + send_sl])
            if nbr == rank:
                # periodic self-wrap: shared memory, no network
                _, self_recv = _edge_slices(self.decomp, rank, _OPPOSITE[d], w)
                arr[(Ellipsis,) + self_recv] = slab
                continue
            out.append((d, nbr, slab.tobytes()))
        return out

    def _fill_halo(self, rank: int, arr: np.ndarray, d: str, w: int, raw: bytes) -> None:
        _, recv_sl = _edge_slices(self.decomp, rank, d, w)
        view = arr[(Ellipsis,) + recv_sl]
        view[...] = np.frombuffer(raw, dtype=arr.dtype).reshape(view.shape)

    def _dir_tag(self, direction: str) -> int:
        return (self._round % 16) * 64 + _DIRECTIONS.index(direction)

    def _rel_tag(self, src_rank: int, base: int) -> int:
        """Reliable-mode tag: the sending rank rides in the upper 6 bits
        so messages stay unambiguous when a remap puts two ranks on one
        node (the base identifies round/direction/barrier-step)."""
        return (src_rank << 10) | base

    def _rank_proc_raw(self, rank: int, fields, w: int, done):
        self._demux.ensure_server(rank)
        arr = fields[rank]
        niu = self.cluster.niu(rank)
        for pass_i, pass_dirs in enumerate((("west", "east"), ("south", "north"))):
            plan = self._pass_plan(rank, arr, pass_dirs, w)
            for d, nbr, raw in plan:
                yield from niu.vi_send(
                    nbr, len(raw), data=raw, xid=(rank << 12) | self._dir_tag(d)
                )
            for d, nbr, _raw in plan:
                # the neighbour ships its edge facing us with the
                # opposite direction's tag
                raw = yield from self._demux.await_slab(
                    rank, nbr, self._dir_tag(_OPPOSITE[d])
                )
                self._fill_halo(rank, arr, d, w, raw)
            # pass barrier so corner data is coherent before y-pass
            yield from self._barrier_round_raw(rank, pass_i)
        done[rank] = True

    def _rank_proc_reliable(self, rank: int, fields, w: int, done):
        node = self._node_of(rank)
        self._mailbox.ensure(node)
        arr = fields[rank]
        for pass_i, pass_dirs in enumerate((("west", "east"), ("south", "north"))):
            plan = self._pass_plan(rank, arr, pass_dirs, w)
            for d, nbr, raw in plan:
                yield from self._mailbox.send(
                    node,
                    self._node_of(nbr),
                    self._rel_tag(rank, self._dir_tag(d)),
                    raw,
                )
            for d, nbr, _raw in plan:
                raw = yield from self._mailbox.recv(
                    node, self._rel_tag(nbr, self._dir_tag(_OPPOSITE[d]))
                )
                self._fill_halo(rank, arr, d, w, raw)
            yield from self._barrier_round_reliable(rank, pass_i)
        done[rank] = True

    def _barrier_round_raw(self, rank: int, pass_i: int):
        """Process: a cheap dissemination barrier over the ranks using
        8-byte PIO messages (keeps the two passes separated).

        Tags are unique per pass: a fast rank pair may reach the second
        pass's barrier while a slow rank is still in the first's, and
        the two barriers' messages must not satisfy each other."""
        n = self.decomp.n_ranks
        if n == 1:
            return
        niu = self.cluster.niu(rank)
        shift = 1
        round_i = 0
        while shift < n:
            to = (rank + shift) % n
            frm = (rank - shift) % n
            tag = 0x500 + pass_i * 8 + round_i
            yield from niu.pio_send(to, [self._round % 1024, round_i], tag=tag)
            # wait for the matching message, stashing early arrivals
            stash = self._barrier_stash[rank]
            while True:
                hit = next(
                    (p for p in stash if p.tag == tag and p.src == frm),
                    None,
                )
                if hit is not None:
                    stash.remove(hit)
                    break
                pkt = yield from niu.pio_recv()
                if pkt.tag == tag and pkt.src == frm:
                    break
                stash.append(pkt)
            shift <<= 1
            round_i += 1

    def _barrier_round_reliable(self, rank: int, pass_i: int):
        """Process: the same dissemination barrier, but over zero-byte
        reliable messages so injected faults cannot wedge it.  Tags are
        unique per pass for the same reason as the raw barrier's."""
        n = self.decomp.n_ranks
        if n == 1:
            return
        node = self._node_of(rank)
        shift = 1
        round_i = 0
        while shift < n:
            to = (rank + shift) % n
            frm = (rank - shift) % n
            base = (self._round % 16) * 64 + 32 + pass_i * 8 + round_i
            yield from self._mailbox.send(
                node, self._node_of(to), self._rel_tag(rank, base)
            )
            yield from self._mailbox.recv(node, self._rel_tag(frm, base))
            shift <<= 1
            round_i += 1

    # -- reporting -------------------------------------------------------

    def reliability_stats(self) -> dict:
        """Aggregated reliable-layer counters across this exchanger's
        ranks (empty in raw mode)."""
        if not self.reliable:
            return {}
        totals: dict = {}
        layers = {
            get_reliable(self.cluster.niu(self._node_of(r)))
            for r in range(self.decomp.n_ranks)
        }
        for rn in layers:
            for key, val in rn.stats().items():
                totals[key] = totals.get(key, 0) + val
        return totals
