"""Lockstep BSP runtime: real data movement, virtual time.

The GCM's parallel structure is bulk-synchronous — per-tile compute
separated by exchanges and global sums — so ranks execute in lockstep
with one virtual clock each:

* compute is charged as ``flops / phase flop rate`` (the paper measures
  Fps = 50 MFlop/s and Fds = 60 MFlop/s on stand-alone kernels and its
  model divides counted flops by those rates, eq. 5/8);
* an exchange synchronizes each rank with its neighbours and adds the
  interconnect cost model's exchange time;
* a global sum synchronizes all ranks and adds tgsum.

``cpus_per_node = 2`` models the production mix-mode: two ranks per SMP,
exchanges relayed by the master at reduced slave bandwidth, global sums
hierarchical over the SMP masters (Sections 4.1-4.2).

Degraded-mode operation: :meth:`LockstepRuntime.set_degradation`
attaches a :class:`~repro.faults.degrade.DegradationSchedule` so a slow
node's ranks genuinely fall behind in virtual time (compute stretches by
the node's CPU factor, communication by the shared wire penalty), and
:class:`StragglerMitigator` shifts tiles off suspected stragglers at
checkpoint boundaries via the :attr:`LockstepRuntime.rank_owner` map.
Ownership and timing never touch field data, so mitigated runs stay
bit-exact with unmitigated ones by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.backend import resolve_backend
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRecorder
from repro.parallel.exchange import exchange_halos
from repro.parallel.globalsum import GlobalSummer
from repro.parallel.tiling import Decomposition


@dataclass(frozen=True)
class MachineModel:
    """Per-phase sustained flop rates (flops/second).

    Defaults are the paper's measured single-CPU kernel rates (Fig. 11):
    Fps = 50 MFlop/s for the 3-D prognostic kernel, Fds = 60 MFlop/s for
    the 2-D solver kernel.
    """

    fps: float = 50e6
    fds: float = 60e6

    def rate(self, phase: str) -> float:
        """Flop rate of phase ``"ps"`` or ``"ds"``."""
        if phase == "ps":
            return self.fps
        if phase == "ds":
            return self.fds
        raise ValueError(f"unknown phase {phase!r}")


@dataclass
class RankStats:
    """Virtual-time accounting for one rank."""

    compute_time: float = 0.0
    exchange_time: float = 0.0
    gsum_time: float = 0.0
    sync_time: float = 0.0  # waiting for neighbours/collectives
    flops: int = 0
    n_exchanges: int = 0
    n_gsums: int = 0
    bytes_exchanged: int = 0  # halo bytes this rank sent

    @property
    def comm_time(self) -> float:
        return self.exchange_time + self.gsum_time


class LockstepRuntime:
    """Executes an SPMD tile program over virtual ranks."""

    def __init__(
        self,
        decomp: Decomposition,
        backend=None,
        cpus_per_node: int = 1,
        machine: Optional[MachineModel] = None,
        record_timeline: bool = False,
        n_nodes: Optional[int] = None,
    ) -> None:
        if cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")
        if decomp.n_ranks % cpus_per_node:
            raise ValueError("rank count must be a multiple of cpus_per_node")
        if n_nodes is not None:
            # over-decomposition: more tiles than CPUs per node, so a
            # node time-slices its tiles and the straggler mitigator has
            # real headroom (shedding a tile genuinely speeds the rest)
            if n_nodes < 1 or decomp.n_ranks % n_nodes:
                raise ValueError("n_nodes must divide the rank count")
            if decomp.n_ranks // n_nodes < cpus_per_node:
                raise ValueError(
                    "over-decomposition needs at least cpus_per_node "
                    "tiles per node"
                )
        self.decomp = decomp
        #: The :class:`repro.backend.CommBackend` quoting every
        #: communication cost this runtime charges.
        self.backend = resolve_backend(backend)
        self.cpus_per_node = cpus_per_node
        self.machine = machine or MachineModel()
        self.n_ranks = decomp.n_ranks
        self.n_nodes = n_nodes or self.n_ranks // cpus_per_node
        self.mixmode = cpus_per_node > 1
        self.clocks = np.zeros(self.n_ranks)
        self.stats = [RankStats() for _ in range(self.n_ranks)]
        self._edges: dict = {}  # (nz, width, itemsize) -> per-rank (edge bytes, their sums)
        #: ``(n_ranks, 4)`` neighbour ranks; a wall points back at the rank
        #: itself (waiting for oneself is no wait).
        self._neighbours = np.array([
            [r if n is None else n for n in decomp.neighbors(r).values()]
            for r in range(self.n_ranks)
        ])
        self._summer = GlobalSummer(self.n_ranks, cpus_per_node)
        tiles_per_node = self.n_ranks // self.n_nodes
        #: Tile placement: ``rank_owner[r]`` is the node whose CPUs run
        #: rank ``r``'s tile.  Defaults to the static block layout; the
        #: straggler mitigator remaps it at checkpoint boundaries.
        #: Placement only affects *timing* — never field data.
        self.rank_owner = np.arange(self.n_ranks) // tiles_per_node
        self._owned = np.full(self.n_nodes, tiles_per_node, dtype=int)
        self._overdecomposed = tiles_per_node > cpus_per_node
        self._remapped = False
        #: Attached degradation schedule (``None`` = healthy machine).
        self.degradation = None
        #: Optional event log: (kind, t_start, t_end) of each charged
        #: phase on the critical-path clock; enable with
        #: ``record_timeline=True`` for post-mortem schedule analysis.
        self.record_timeline = record_timeline
        self.timeline: list[tuple[str, float, float]] = []
        #: Optional per-phase telemetry sink (see :meth:`attach_metrics`).
        self.metrics: Optional[MetricsRecorder] = None
        #: Phase label charged for exchanges/global sums/barriers when the
        #: call itself carries none (the gcm's loop structure makes PS the
        #: phase of every direct runtime call; DS/NH charge via
        #: :meth:`charge_phase` with an explicit phase).
        self.current_phase = "ps"
        #: Track label for trace spans of this runtime's lockstep clock.
        self.trace_label = "bsp"

    def attach_metrics(self) -> MetricsRecorder:
        """Attach (and return) a fresh per-phase telemetry recorder."""
        self.metrics = MetricsRecorder()
        return self.metrics

    # -- degraded-mode operation -----------------------------------------

    def set_degradation(self, schedule) -> None:
        """Attach a :class:`~repro.faults.degrade.DegradationSchedule`.

        Compute charges stretch by the owning node's CPU factor and the
        backend composes the shared wire penalty into every quote.  Pass
        ``None`` to return to healthy-machine pricing.
        """
        self.degradation = schedule
        self.backend.set_degradation(schedule)

    def move_tile(self, rank: int, node: int) -> None:
        """Reassign rank ``rank``'s tile to ``node`` (timing only).

        A node running more tiles than CPUs time-slices them: each of
        its tiles computes at ``owned / cpus_per_node`` of full speed.
        """
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range 0..{self.n_nodes - 1}")
        old = int(self.rank_owner[rank])
        if old == node:
            return
        self._owned[old] -= 1
        self._owned[node] += 1
        self.rank_owner[rank] = node
        self._remapped = True

    def tiles_owned(self, node: int) -> int:
        """How many tiles ``node`` currently runs."""
        return int(self._owned[node])

    def _compute_factors(self) -> Optional[np.ndarray]:
        """Per-rank compute stretch (``None`` on the healthy fast path)."""
        if (
            self.degradation is None
            and not self._remapped
            and not self._overdecomposed
        ):
            return None
        factors = np.ones(self.n_ranks)
        over = np.maximum(self._owned / self.cpus_per_node, 1.0)
        for r in range(self.n_ranks):
            node = int(self.rank_owner[r])
            f = over[node]
            if self.degradation is not None:
                f *= self.degradation.cpu_factor(node, float(self.clocks[r]))
            factors[r] = f
        return factors

    def _log(self, kind: str, t_start: float) -> None:
        t_end = self.elapsed
        if self.record_timeline:
            self.timeline.append((kind, t_start, t_end))
        tr = obs_trace.TRACER
        if tr is not None and t_end > t_start:
            tr.complete(
                f"bsp:{self.trace_label}", "critical-path", kind,
                t_start, t_end, cat="bsp",
            )

    # -- compute ---------------------------------------------------------

    def charge_compute(self, flops_per_rank: Sequence[float] | float, phase: str) -> None:
        """Advance every rank's clock by its compute time for this stage."""
        rate = self.machine.rate(phase)
        flops = np.broadcast_to(np.asarray(flops_per_rank, dtype=float), (self.n_ranks,))
        t_start = self.elapsed
        dt = flops / rate
        factors = self._compute_factors()
        if factors is not None:
            dt = dt * factors
        self.clocks += dt
        for r, st in enumerate(self.stats):
            st.compute_time += dt[r]
            st.flops += int(flops[r])
        if self.metrics is not None:
            self.metrics.record(
                phase, "compute", float(dt.max()), flops=int(flops.sum())
            )
        self._log(f"compute:{phase}", t_start)

    # -- exchange ----------------------------------------------------------

    def exchange(
        self,
        fields: Sequence[Sequence[np.ndarray]] | Sequence[np.ndarray],
        width: Optional[int] = None,
        itemsize: int | Sequence[int] = 8,
        wire_dtypes=None,
    ) -> None:
        """Exchange halos of one or more fields and charge virtual time.

        ``fields`` is either one field — an array stacked on a leading
        rank axis, or a sequence of ``n_ranks`` 2-D/3-D tile arrays — or
        a sequence of such fields exchanged back-to-back (the PS phase
        exchanges five three-dimensional state fields per step); a
        list that reads both ways (``_split_fields``) raises ``ValueError``.

        ``itemsize`` prices the wire: one int for every field, or one
        per field when a mixed-precision config narrows some payloads.
        ``wire_dtypes`` (one dtype-or-None per field, or a single value
        for all) applies the matching value-level quantization; None
        keeps a field's copies cast-free.
        """
        field_list = self._split_fields(fields)
        itemsizes = self._per_field(itemsize, len(field_list), "itemsizes")
        wire_list = self._per_field(wire_dtypes, len(field_list), "wire dtypes")

        costs = np.zeros(self.n_ranks)
        total_bytes = 0
        # Clocks stand still until every field is priced, so fields of
        # one shape and wire size share one per-rank quote vector.
        quoted: dict = {}
        for f, isz, wdt in zip(field_list, map(int, itemsizes), wire_list):
            arr0 = f[0]
            nz = 1 if arr0.ndim == 2 else arr0.shape[0]
            exchange_halos(self.decomp, f, width, wire_dtype=wdt)
            if (nz, isz) not in quoted:
                quoted[nz, isz] = self._exchange_quotes(nz, width, isz)
            field_costs, sent = quoted[nz, isz]
            costs += field_costs
            for st, n in zip(self.stats, sent):
                st.bytes_exchanged += n
            total_bytes += sum(sent)

        # Neighbour synchronization: a rank cannot finish its exchange
        # before the tiles it trades halos with have arrived at it.
        before = self.clocks.copy()
        synced = np.maximum(before, before[self._neighbours].max(axis=1))
        t_start = float(before.max())
        self.clocks = synced + costs
        for r, st in enumerate(self.stats):
            st.sync_time += synced[r] - before[r]
            st.exchange_time += costs[r]
            st.n_exchanges += len(field_list)
        if self.metrics is not None:
            self.metrics.record(
                self.current_phase, "exchange", float(costs.max()),
                nbytes=total_bytes, exchanges=len(field_list),
            )
            self.metrics.record(
                self.current_phase, "sync", float((synced - before).max())
            )
        self._log(f"exchange:{len(field_list)}f", t_start)

    @staticmethod
    def _per_field(value, n_fields: int, what: str) -> list:
        """``value`` for each field: one for all, or a list of one each."""
        if not isinstance(value, (list, tuple)):
            return [value] * n_fields
        if len(value) != n_fields:
            raise ValueError(f"need {n_fields} {what}, got {len(value)}")
        return list(value)

    def _split_fields(self, fields) -> list:
        """``exchange``'s argument as a list of fields."""
        if isinstance(fields, np.ndarray):
            return [fields]
        if not isinstance(fields[0], np.ndarray):
            return list(fields)  # fields given as lists of tiles
        n = self.n_ranks
        as_tiles = len(fields) == n and all(f.ndim <= 3 for f in fields)
        as_stacks = all(f.ndim >= 3 and f.shape[0] == n for f in fields)
        if as_tiles and as_stacks and n > 1:
            raise ValueError(
                f"{n} arrays of shape {fields[0].shape} on {n} ranks are one "
                "field's tiles or that many rank-stacked fields: pass [tiles] "
                "or [list(f) for f in fields]"
            )
        return [fields] if as_tiles else list(fields)

    def _exchange_quotes(self, nz: int, width: Optional[int], itemsize: int):
        """Per-rank ``(cost vector, bytes sent)`` of one field's exchange
        at the current clocks.  On a healthy machine a quote depends on
        the edge sizes alone, so ranks with equal edges share one."""
        if (nz, width, itemsize) not in self._edges:  # pure geometry: kept for the run
            edges = [
                tuple(self.decomp.edge_bytes(nz=nz, width=width, itemsize=itemsize, rank=r))
                for r in range(self.n_ranks)
            ]
            self._edges[nz, width, itemsize] = edges, [sum(e) for e in edges]
        edges, sent = self._edges[nz, width, itemsize]
        if self.degradation is None:
            quote = {
                e: self.backend.exchange_time(e, mixmode=self.mixmode, n_ranks=self.n_ranks)
                for e in dict.fromkeys(edges)
            }
            costs = [quote[e] for e in edges]
        else:
            costs = [
                self.backend.exchange_time(
                    e, mixmode=self.mixmode, n_ranks=self.n_ranks,
                    node=int(self.rank_owner[r]), now=float(self.clocks[r]),
                )
                for r, e in enumerate(edges)
            ]
        return np.array(costs), sent

    # -- global sum ---------------------------------------------------------

    def global_sum(
        self,
        values: Sequence[float],
        nbytes: int = 8,
        wire_dtype=None,
    ) -> float:
        """All-reduce one scalar per rank; synchronizes every clock.

        ``nbytes`` prices the per-element wire payload; ``wire_dtype``
        applies the matching value quantization (each rank's
        contribution and the broadcast result pass through that dtype).
        The defaults are the seed's bit-exact float64 stream.
        """
        if wire_dtype is not None and np.dtype(wire_dtype) != np.float64:
            values = np.asarray(values, dtype=wire_dtype).astype(np.float64)
        result = self._summer(values)
        if wire_dtype is not None and np.dtype(wire_dtype) != np.float64:
            result = float(np.asarray(result).astype(wire_dtype))
        # a healthy machine's quote does not depend on when it is asked
        when = None if self.degradation is None else self.elapsed
        t_g = self.backend.gsum_time(self.n_nodes, nbytes, smp=self.mixmode, now=when)
        before = self.clocks.copy()
        now = float(before.max())
        self.clocks[:] = now + t_g
        for r, st in enumerate(self.stats):
            st.sync_time += now - before[r]
            st.gsum_time += t_g
            st.n_gsums += 1
        if self.metrics is not None:
            self.metrics.record(self.current_phase, "gsum", t_g, gsums=1)
            self.metrics.record(
                self.current_phase, "sync", float((now - before).max())
            )
        self._log("gsum", now)
        return result

    def barrier(self) -> None:
        """Synchronize clocks (costed like a dataless global sum)."""
        when = None if self.degradation is None else self.elapsed
        t_b = self.backend.barrier_time(self.n_nodes, now=when)
        t_start = self.elapsed
        self.clocks[:] = float(self.clocks.max()) + t_b
        if self.metrics is not None:
            self.metrics.record(self.current_phase, "barrier", t_b)
        self._log("barrier", t_start)

    def sync(self) -> None:
        """Cost-free clock alignment (e.g. entering a phase that begins
        with a collective whose cost is charged separately)."""
        before = self.clocks.copy()
        now = float(before.max())
        self.clocks[:] = now
        for r, st in enumerate(self.stats):
            st.sync_time += now - before[r]

    def charge_phase(
        self,
        compute: float = 0.0,
        exchange: float = 0.0,
        gsum: float = 0.0,
        flops: float = 0.0,
        n_exchanges: int = 0,
        n_gsums: int = 0,
        phase: str = "ds",
    ) -> None:
        """Charge a pre-aggregated, globally-synchronous phase uniformly.

        Used for the DS solver, whose per-iteration global sums keep all
        ranks in lockstep: the caller aggregates ``Ni`` iterations of
        compute/exchange/gsum cost and charges them here in one call.
        """
        total = compute + exchange + gsum
        t_start = self.elapsed
        self.clocks += total
        per_rank_flops = flops / self.n_ranks if self.n_ranks else 0.0
        for st in self.stats:
            st.compute_time += compute
            st.exchange_time += exchange
            st.gsum_time += gsum
            st.flops += int(per_rank_flops)
            st.n_exchanges += n_exchanges
            st.n_gsums += n_gsums
        if self.metrics is not None:
            self.metrics.record(phase, "compute", compute, flops=int(flops))
            self.metrics.record(
                phase, "exchange", exchange, exchanges=n_exchanges
            )
            self.metrics.record(phase, "gsum", gsum, gsums=n_gsums)
        self._log(f"solver:{n_gsums // 2}it", t_start)

    # -- reporting -----------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock: the slowest rank's time."""
        return float(self.clocks.max())

    def total_flops(self) -> int:
        """Total flops charged across every rank."""
        return sum(st.flops for st in self.stats)

    def sustained_flops(self) -> float:
        """Aggregate sustained rate = total flops / virtual wall-clock."""
        t = self.elapsed
        return self.total_flops() / t if t > 0 else 0.0

    def summary(self) -> dict[str, float]:
        """Critical-path rank's time breakdown plus aggregate rates."""
        worst = max(range(self.n_ranks), key=lambda r: self.clocks[r])
        st = self.stats[worst]
        return {
            "elapsed": self.elapsed,
            "compute_time": st.compute_time,
            "exchange_time": st.exchange_time,
            "gsum_time": st.gsum_time,
            "sync_time": st.sync_time,
            "total_flops": float(self.total_flops()),
            "sustained_flops": self.sustained_flops(),
            "total_bytes_exchanged": float(
                sum(s.bytes_exchanged for s in self.stats)
            ),
        }


# ---------------------------------------------------------------------------
# Straggler mitigation
# ---------------------------------------------------------------------------


# ``SUSPECT_FACTOR`` plays the role of the membership layer's phi
# threshold, but over *progress* rather than heartbeats: a node whose
# smoothed per-stage virtual time runs this many times the cluster
# median is suspected of straggling.  It must clear the mix-mode
# oversubscription ratio (a healthy node absorbing one extra tile runs
# at 1.5x with ``cpus_per_node=2``), so it stays conservative: no false
# positives on a merely-busy node.
SUSPECT_FACTOR = 1.8
#: Weight of the newest stage in the smoothed slowdown, in (0, 1].
EWMA_ALPHA = 0.4
#: Observed stages before any node can be suspected.
MIN_OBSERVATIONS = 2
#: Never move a node's last tile: a straggler still owns its share of
#: the fabric and must keep heartbeating through real work.
MIN_TILES = 1


class StragglerMitigator:
    """Progress-based straggler suspicion and tile rebalancing.

    The detector side mirrors the phi-accrual membership detector's
    philosophy — learn what "normal" looks like, suspect deviations,
    never equate *slow* with *dead* — but observes BSP progress instead
    of heartbeats.  Progress is each rank's *charged work* (compute +
    communication cost, excluding sync waits): raw clocks equalize at
    every collective, which would hide the straggler, while a slow
    node's charged work genuinely stretches.  Call :meth:`observe`
    after each stage (or coupling window), then :meth:`rebalance` at
    checkpoint boundaries, where ownership may legally change because
    every rank's state is durable and aligned.

    Rebalancing greedily moves tiles from the most overloaded suspected
    node to the least loaded node while doing so shrinks the projected
    critical path (load = tiles x slowdown / CPUs).  All decisions are
    deterministic functions of observed virtual time; tile *data* never
    moves, so mitigated runs stay bit-exact.
    """

    def __init__(self, runtime: LockstepRuntime) -> None:
        self.runtime = runtime
        self._last = self._work()
        self._estimate = np.ones(runtime.n_nodes)
        self._observations = 0
        self.moves: list[tuple[int, int, int]] = []

    def _work(self) -> np.ndarray:
        """Per-rank charged work: everything but sync waits."""
        return np.array(
            [
                st.compute_time + st.exchange_time + st.gsum_time
                for st in self.runtime.stats
            ]
        )

    def _node_progress(self, delta: np.ndarray) -> np.ndarray:
        """Per-node stage time: the slowest of the node's tiles."""
        prog = np.zeros(self.runtime.n_nodes)
        for r in range(self.runtime.n_ranks):
            node = int(self.runtime.rank_owner[r])
            prog[node] = max(prog[node], delta[r])
        return prog

    def observe(self) -> None:
        """Fold one stage's per-node progress into the EWMA estimates."""
        work = self._work()
        delta = work - self._last
        self._last = work
        prog = self._node_progress(delta)
        # normalize against the healthy majority; guard the all-idle stage
        med = float(np.median(prog[prog > 0])) if (prog > 0).any() else 0.0
        if med <= 0.0:
            return
        # a node with *more tiles than its peers* is legitimately slower:
        # discount oversubscription relative to the cluster median, so a
        # uniformly over-decomposed layout carries no discount (the
        # median already reflects it) while the imbalance the mitigator
        # itself created never reads as straggling
        over = np.maximum(
            self.runtime._owned / self.runtime.cpus_per_node, 1.0
        )
        rel = np.maximum(over / max(float(np.median(over)), 1.0), 1.0)
        ratio = np.maximum(prog / med, 0.0) / rel
        self._estimate = (1 - EWMA_ALPHA) * self._estimate + EWMA_ALPHA * ratio
        self._observations += 1

    def slowdown(self, node: int) -> float:
        """Smoothed slowdown estimate for ``node`` (1 = healthy)."""
        return float(self._estimate[node])

    def suspected(self, node: int) -> bool:
        """Is ``node`` currently suspected of straggling?"""
        return (
            self._observations >= MIN_OBSERVATIONS
            and self._estimate[node] >= SUSPECT_FACTOR
        )

    def suspects(self) -> list[int]:
        """All currently suspected nodes."""
        return [n for n in range(self.runtime.n_nodes) if self.suspected(n)]

    def rebalance(self) -> list[tuple[int, int, int]]:
        """Shift tiles off suspected stragglers (checkpoint boundary).

        Returns the ``(rank, from_node, to_node)`` moves made this call.
        """
        rt = self.runtime
        suspects = set(self.suspects())
        if not suspects:
            return []
        est = np.maximum(self._estimate, 1.0)
        moves: list[tuple[int, int, int]] = []
        while True:
            load = rt._owned * est / rt.cpus_per_node
            src = int(np.argmax(load))
            if src not in suspects or rt.tiles_owned(src) <= MIN_TILES:
                break
            dst = int(np.argmin(load))
            new_src = (rt.tiles_owned(src) - 1) * est[src] / rt.cpus_per_node
            new_dst = (rt.tiles_owned(dst) + 1) * est[dst] / rt.cpus_per_node
            if max(new_src, new_dst) >= load[src]:
                break  # the move no longer shrinks the critical path
            # deterministic choice: the highest-numbered tile on src
            ranks = [
                r for r in range(rt.n_ranks) if int(rt.rank_owner[r]) == src
            ]
            rank = ranks[-1]
            rt.move_tile(rank, dst)
            moves.append((rank, src, dst))
        self.moves.extend(moves)
        return moves
