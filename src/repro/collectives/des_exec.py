"""Packet-level DES execution of collective schedules.

Two executors over the same :class:`~repro.collectives.schedules.Schedule`:

* :func:`des_time_schedule` — the *timing* path: every send becomes
  real simulated traffic (single PIO packets for <= 88 B payloads with
  the shared ``GSUM_SW_COST`` poll loop — the Fig. 8 butterfly global
  sum is ``allreduce_butterfly(n, 8)`` run here; VI block transfers
  beyond, served through the shared
  :class:`~repro.niu.demux.VIDemux`).  This is what the
  autotuner cross-validates its analytic predictions against.
* :func:`des_run_schedule` — the *data* path: the schedule's logical
  items (see :mod:`repro.collectives.semantics`) are serialized and
  shipped through the go-back-N reliable layer
  (:mod:`repro.niu.reliable`), so the run survives injected loss and
  corruption and still finishes **bit-exact**: reductions apply the
  canonical fold order on tagged contributions, never arrival order.

Both executors emit ``obs`` trace spans (pid ``collectives``) when a
tracer is installed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.cluster import HyadesCluster
from repro.network.overheads import (
    GSUM_SW_COST,
    SMALL_MSG_MAX_BYTES,
    TRANSFER_BANDWIDTH,
    TRANSFER_OVERHEAD,
)
from repro.network.packet import MAX_PAYLOAD_WORDS, Priority, WORD_BYTES
from repro.niu.demux import VIDemux
from repro.niu.reliable import allocate_channel, get_reliable
from repro.obs import trace as obs_trace

from .schedules import Schedule
from .semantics import ItemStore

#: PIO collective rounds are tagged 0x600 | round to stay clear of the
#: exchange (< 0x400) and reliable-layer (0x7Fx) tags.
_PIO_TAG_BASE = 0x600


def _pio_words(nbytes: int) -> List[int]:
    return [0] * min(
        max(math.ceil(max(nbytes, 8) / WORD_BYTES), 2), MAX_PAYLOAD_WORDS
    )


def _trace_round(op: str, alg: str, rank: int, round_i: int, t0: float, t1: float):
    tr = obs_trace.TRACER
    if tr is not None:
        tr.complete(
            "collectives",
            f"rank{rank}",
            f"{op}:{alg}:r{round_i}",
            t0,
            t1,
            cat="collectives",
        )


def _trace_done(schedule: Schedule, t0: float, t1: float, mode: str):
    tr = obs_trace.TRACER
    if tr is not None:
        tr.complete(
            "collectives",
            mode,
            f"{schedule.op}:{schedule.algorithm}[n={schedule.n}]",
            t0,
            t1,
            cat="collectives",
            args={
                "rounds": schedule.n_rounds,
                "messages": schedule.total_messages,
                "nbytes": schedule.nbytes,
            },
        )


def _by_rank(rounds) -> List[Tuple[Dict[int, list], Dict[int, list]]]:
    """Per round of ``(src, dst, payload)`` sends, ``({src: its (dst,
    payload) posts}, {dst: its (src, payload) awaits})`` in schedule
    order: one pass, where a scan per rank is quadratic in the ranks."""
    by_rank = []
    for rnd in rounds:
        posts: Dict[int, list] = {}
        awaits: Dict[int, list] = {}
        for src, dst, payload in rnd:
            posts.setdefault(src, []).append((dst, payload))
            awaits.setdefault(dst, []).append((src, payload))
        by_rank.append((posts, awaits))
    return by_rank


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
    eng = cluster.engine
    demux = VIDemux.of(cluster)
    done_times = [0.0] * n
    pio_stash: List[Dict[Tuple[int, int], object]] = [{} for _ in range(n)]

    def rank_proc(me: int):
        niu = cluster.niu(me)
        for i, (posts, awaits) in enumerate(by_rank):
            t0 = eng.now
            for dst, nbytes in posts.get(me, ()):
                if max(nbytes, 8) <= SMALL_MSG_MAX_BYTES:
                    yield from niu.pio_send(
                        dst,
                        _pio_words(nbytes),
                        tag=_PIO_TAG_BASE | i,
                        priority=Priority.LOW,
                    )
                else:
                    yield from niu.vi_send(dst, nbytes, xid=(me << 12) | i)
            for src, nbytes in awaits.get(me, ()):
                if max(nbytes, 8) <= SMALL_MSG_MAX_BYTES:
                    want = (_PIO_TAG_BASE | i, src)
                    while want not in pio_stash[me]:
                        # software poll/loop cost, then block for a packet
                        yield eng.timeout(GSUM_SW_COST)
                        pkt = yield from niu.pio_recv()
                        pio_stash[me][(pkt.tag, pkt.src)] = pkt
                    pio_stash[me].pop(want)
                else:
                    yield from demux.await_slab(me, src, i)
                    # the NIU's VI path bills only the sender's DMA; the
                    # receiver's PCI pull serializes against its own
                    # traffic (Section 4.1: one transfer saturates the
                    # bus), so bill it here with the shared leg cost
                    yield eng.timeout(
                        TRANSFER_OVERHEAD + max(nbytes, 8) / TRANSFER_BANDWIDTH
                    )
            _trace_round(schedule.op, schedule.algorithm, me, i, t0, eng.now)
        done_times[me] = eng.now

    # the wire alone: timing never reads ``.rounds`` (items, ``Send``s)
    col = schedule.columns
    bounds = col.bounds.tolist()
    sends = list(zip(col.src.tolist(), col.dst.tolist(), col.nbytes.tolist()))
    by_rank = _by_rank(sends[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    start = eng.now
    uses_vi = bool((col.nbytes > SMALL_MSG_MAX_BYTES).any())
    for r in range(n):
        if uses_vi:
            demux.ensure_server(r)
        eng.process(rank_proc(r), name=f"coll-{schedule.algorithm}[rank{r}]")
    eng.run(watchdog=True)
    elapsed = max(done_times) - start
    _trace_done(schedule, start, max(done_times), "timing")
    return elapsed


def des_run_schedule(
    cluster: HyadesCluster,
    schedule: Schedule,
    inputs: Optional[Sequence] = None,
    reliable_params: Optional[dict] = None,
) -> Tuple[List, float]:
    """Execute a schedule *with data* over the reliable channels.

    Returns ``(per-rank results, elapsed seconds)``.  Survives any
    fault plan the go-back-N layer can mask, and the results are
    bitwise identical to :func:`repro.collectives.semantics.run_schedule`
    regardless of faults, retries or arrival order.
    """
    n = schedule.n
    if n > cluster.n_nodes:
        raise ValueError(f"schedule needs {n} nodes, cluster has {cluster.n_nodes}")
    if n > 64:
        raise ValueError("reliable collectives support at most 64 ranks")
    if schedule.n_rounds >= 256:
        raise ValueError("reliable collectives support at most 255 rounds")
    eng = cluster.engine
    if inputs is None:
        inputs = [None] * n
    stores = [ItemStore(schedule, r, inputs[r]) for r in range(n)]
    if schedule.n_rounds == 0:
        return [st.finish() for st in stores], 0.0
    cid = allocate_channel(cluster)
    params = dict(reliable_params or {})
    rnius = [get_reliable(cluster.niu(r), **params) for r in range(n)]
    done_times = [0.0] * n
    stash: List[Dict[int, deque]] = [{} for _ in range(n)]

    def rank_proc(me: int):
        rniu = rnius[me]
        for i, (posts, awaits) in enumerate(by_rank):
            t0 = eng.now
            for dst, items in posts.get(me, ()):
                yield from rniu.send(
                    dst,
                    tag=(me << 8) | i,
                    data=stores[me].serialize(items),
                    channel=cid,
                )
            for src, _ in awaits.get(me, ()):
                want = (src << 8) | i
                # only this rank consumes its node's channel, so it can
                # drain directly, stashing messages for later rounds
                while not stash[me].get(want):
                    msg = yield from rniu.recv(channel=cid)
                    stash[me].setdefault(msg.tag, deque()).append(msg.data)
                stores[me].absorb(stash[me][want].popleft())
            _trace_round(schedule.op, schedule.algorithm, me, i, t0, eng.now)
        done_times[me] = eng.now

    by_rank = _by_rank([(s.src, s.dst, s.items) for s in rnd] for rnd in schedule.rounds)
    start = eng.now
    for r in range(n):
        eng.process(rank_proc(r), name=f"coll-data-{schedule.algorithm}[rank{r}]")
    eng.run(watchdog=True)
    elapsed = max(done_times) - start
    _trace_done(schedule, start, max(done_times), "data")
    return [st.finish() for st in stores], elapsed
