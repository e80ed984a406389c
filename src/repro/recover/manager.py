"""The rollback-restart recovery manager.

Owns the whole self-healing control loop for a DES cluster run:

1. **Watch** — while a communication phase (halo exchange, coupling,
   checkpoint barrier) runs on the engine, the manager holds the phase's
   rank processes.  A *physical* crash (fabric ``kill_endpoint``)
   immediately interrupts the dead node's own processes (fail-stop); a
   *declared* death (heartbeat detector, or a reliable flow exhausting
   its retries) interrupts every watched process and surfaces as a
   structured :class:`~repro.recover.membership.NodeFailure`.
2. **Fence** — survivors bump the reliable layer's epoch
   (:meth:`~repro.niu.reliable.ReliableNIU.fence`), so retransmissions,
   ACKs and half-reassembled fragments of the aborted round are dropped
   on arrival instead of corrupting the restarted one.
3. **Remap** — the dead node's ranks move to a hot spare
   (``HyadesConfig.n_spares``) or, when allowed, double up on the
   least-loaded survivor (:class:`~repro.parallel.tiling.RankMap`).
4. **Restore** — the last *committed* coordinated checkpoint is read
   back (CRC-verified shards), and a DES-costed restore phase charges
   the disk reads plus a commit barrier before the run resumes.

Checkpoint writes and restores are priced honestly: every rank's shard
bytes move at ``DISK_BANDWIDTH`` in virtual time, and the commit
protocol's messages ride the reliable layer through the simulated
fabric.  Steady-state heartbeat cost, checkpoint tax, detection
latency, rollback and recompute are all measurable on the virtual
clock — see ``benchmarks/bench_recovery_overhead.py``.
"""

from __future__ import annotations

import tempfile
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.gcm.checkpoint import CheckpointError
from repro.niu.reliable import DeliveryError, ReliableMailbox, get_reliable
from repro.recover.checkpoint import CoordinatedCheckpointStore
from repro.recover.membership import (
    FailureRecord,
    HeartbeatConfig,
    HeartbeatService,
    Membership,
    NodeFailure,
    UnrecoverableError,
)
from repro.parallel.tiling import RankMap


#: Local-disk streaming rate for shard writes/reads (bytes/s; ~30 MB/s
#: suits the paper's 1999-era IDE disks).
DISK_BANDWIDTH = 30e6
#: Upper bound (virtual seconds) on any single communication phase.
#: Heartbeat traffic keeps the event heap alive forever, so a genuinely
#: wedged phase would otherwise spin in real time; this converts it into
#: a structured error.  Generous next to the microsecond-scale phases it
#: bounds.
PHASE_TIMEOUT = 0.25


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the self-healing runtime."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    #: Coupling windows between coordinated checkpoints (K).
    checkpoint_interval: int = 2
    #: Shard directory; None -> a fresh temporary directory.
    checkpoint_dir: Optional[str] = None
    #: With the spare pool (``cluster.spare_ids``) empty, double ranks up
    #: on survivors instead of giving up.
    allow_redistribute: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if PHASE_TIMEOUT <= self.heartbeat.timeout:
            raise ValueError(
                "the heartbeat timeout must stay below PHASE_TIMEOUT or no "
                "failure can be declared before the phase gives up"
            )


class RecoveryManager:
    """Crash detection + coordinated checkpointing + rollback-restart
    for one cluster and one rank set.

    Construction wires the pieces together (reliable layers on every
    participant, membership, fabric crash listener); :meth:`arm` starts
    the heartbeat daemons.  :class:`~repro.parallel.des_spmd.DESExchanger`
    instances built with ``recovery=manager`` route their node lookups
    and abort handling through it.
    """

    def __init__(
        self,
        cluster,
        n_ranks: int,
        config: Optional[RecoveryConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = config or RecoveryConfig()
        self.n_ranks = n_ranks
        # imported here, not at module level: service workers import
        # repro.recover and never run a DES phase
        from repro.collectives.des_exec import check_reliable_ranks

        check_reliable_ranks(n_ranks)
        spares = cluster.spare_ids
        if n_ranks + len(spares) > cluster.n_nodes:
            raise ValueError(
                f"{n_ranks} ranks + {len(spares)} spares exceed the "
                f"{cluster.n_nodes}-node cluster"
            )
        self.rankmap = RankMap(
            n_ranks, spares=spares, allow_redistribute=self.config.allow_redistribute
        )
        # Reliable layers must exist on every participant *before* the
        # heartbeat service wraps the receive hooks (the layer refuses
        # to install over a foreign hook).
        for node in self.rankmap.nodes():
            get_reliable(cluster.niu(node))
        self.membership = Membership(self.rankmap.nodes())
        self.heartbeats = HeartbeatService(
            cluster, self.membership, self.config.heartbeat
        )
        self.membership.on_declared.append(self._on_declared)
        cluster.fabric.crash_listeners.append(self._on_physical_crash)

        ckpt_dir = self.config.checkpoint_dir or tempfile.mkdtemp(
            prefix="repro-ckpt-"
        )
        self.store = CoordinatedCheckpointStore(ckpt_dir)

        # Own reliable channel for the commit protocol.
        self._mailbox = ReliableMailbox(cluster, "recover")
        self._barrier_plan = None

        self.epoch = 0
        self._phase_seq = 0
        self._watched: Dict[int, object] = {}
        self._failures: deque = deque()
        self._exchangers: list = []

        # -- accounting --------------------------------------------------
        #: Per-checkpoint records: window, DES seconds, bytes.
        self.checkpoint_log: list[dict] = []
        #: Per-recovery records: node, ranks, latency, rollback cost...
        self.recovery_log: list[dict] = []

    # -- wiring ----------------------------------------------------------

    def arm(self) -> None:
        """Start the heartbeat beacons and failure detectors."""
        self.heartbeats.arm()

    def adopt(self, exchanger) -> None:
        """Register an exchanger for abort on recovery."""
        if exchanger not in self._exchangers:
            self._exchangers.append(exchanger)

    @property
    def _barrier_schedule(self):
        """Tuned commit-barrier schedule over the rank set.

        Latency-critical (``Priority.HIGH``): the autotuner picks the
        fewest-round barrier — dissemination (any N) or butterfly (2^k)
        — replacing the old O(N) star DONE/COMMIT protocol."""
        if self._barrier_plan is None:
            from repro.collectives import default_tuner
            from repro.network.packet import Priority

            self._barrier_plan = default_tuner().plan(
                "barrier", self.n_ranks, priority=Priority.HIGH
            )
        return self._barrier_plan.schedule

    # -- failure plumbing ------------------------------------------------

    @property
    def has_failure(self) -> bool:
        return bool(self._failures)

    def take_failure(self) -> NodeFailure:
        """Pop the oldest pending failure (raises if none)."""
        return self._failures.popleft()

    def watch(self, procs: Dict[int, object]) -> None:
        """Register the running phase's rank processes for abort.

        Ranks whose node already crashed (fail-stop: in an earlier
        phase, or between phases) are interrupted immediately — a dead
        node must not execute zombie work in the new phase while the
        survivors' detectors converge on declaring it."""
        self._watched = dict(procs)
        for rank, proc in procs.items():
            node = self.rankmap.node_of(rank)
            if node in self.membership.crashed:
                proc.interrupt(cause=f"node {node} crashed")

    def unwatch(self) -> None:
        """Forget the watched phase processes (phase over)."""
        self._watched = {}

    def _on_physical_crash(self, node: int) -> None:
        """Fabric callback at the instant of death: fail-stop means the
        dead node's own processes stop *now* (survivors learn later,
        through the detector)."""
        if node not in self.membership.participants:
            return
        self.membership.mark_crashed(node, self.engine.now)
        for rank in self.rankmap.ranks_on(node):
            proc = self._watched.get(rank)
            if proc is not None:
                proc.interrupt(cause=f"node {node} crashed")

    def _on_declared(self, record: FailureRecord) -> None:
        """Membership callback: a survivor's detector declared a death."""
        ranks = self.rankmap.ranks_on(record.node)
        if not ranks:
            # A dead spare: silently shrink the pool, nothing to abort.
            self.rankmap.retire_node(record.node)
            return
        failure = NodeFailure(
            node=record.node,
            ranks=ranks,
            declared_at=record.declared_at,
            declared_by=record.declared_by,
            crashed_at=record.crashed_at,
            reason=record.reason,
        )
        self._failures.append(failure)
        # Abort the in-flight phase on every survivor.
        for proc in self._watched.values():
            proc.interrupt(cause=failure)

    def on_delivery_error(self, exc: DeliveryError) -> None:
        """Fail-stop suspicion: an unreachable destination is dead."""
        self.membership.declare_dead(
            exc.dst,
            by=exc.src,
            when=self.engine.now,
            reason=f"reliable delivery gave up: {exc}",
        )
        if not self.has_failure:
            # The destination hosted no ranks; nothing to recover.
            raise exc

    def run_phase_guarded(self, done, label: str):
        """Drive the engine through one watched communication phase.

        Returns normally once no entry of ``done`` (the rank finish
        times of :func:`repro.collectives.des_exec.start_ranks`) is
        ``None``; raises :class:`NodeFailure` when a death was declared
        mid-phase, or ``RuntimeError`` if the phase stalls past
        ``PHASE_TIMEOUT`` without any declared failure.
        """
        engine = self.engine
        deadline = engine.now + PHASE_TIMEOUT
        try:
            engine.run(
                watchdog=True,
                stop_when=lambda: None not in done
                or self.has_failure
                or engine.now > deadline,
            )
        except DeliveryError as exc:
            self.on_delivery_error(exc)
        finally:
            self.unwatch()
        if self.has_failure:
            raise self.take_failure()
        if None in done:
            stuck = [r for r, d in enumerate(done) if d is None]
            raise RuntimeError(
                f"{label} stalled past PHASE_TIMEOUT="
                f"{PHASE_TIMEOUT} s (virtual) on ranks {stuck} "
                "with no declared node failure"
            )

    # -- coordinated checkpointing ---------------------------------------

    def checkpoint(self, models: Dict[str, object], window: int) -> None:
        """Take one coordinated checkpoint at a window boundary.

        Shards are written (durably, CRC'd, atomically) first; then the
        DES prices the distributed protocol — every rank streams its
        shard to disk at ``DISK_BANDWIDTH`` and joins a commit barrier
        through the reliable layer — and only after the priced protocol
        completes is the manifest committed.  A crash mid-protocol
        leaves the previous committed checkpoint authoritative.
        """
        record = self.store.write_shards(models, window)
        des = self._run_phase(models, record, label=f"ckpt-w{window}")
        self.store.commit(record)
        self.checkpoint_log.append(
            {
                "window": window,
                "des_seconds": des,
                "nbytes": record.total_nbytes(),
                "committed_at": self.engine.now,
            }
        )

    def _run_phase(self, models: Dict[str, object], record, label: str) -> float:
        """One barrier-aligned disk phase: every rank streams its shards
        of ``record`` to disk, then joins the tuned commit barrier on the
        manager's reliable channel.  Returns DES time."""
        from repro.collectives.des_exec import Phase, start_ranks, wire_rounds

        start = self.engine.now
        self._phase_seq += 1
        comps = sorted(models)
        disk = [
            sum(
                record.rank_nbytes(comp, rank)
                for comp in comps
                if rank < models[comp].decomp.n_ranks
            )
            / DISK_BANDWIDTH
            for rank in range(self.n_ranks)
        ]
        procs, done = start_ranks(
            self.cluster,
            Phase(label, wire_rounds(self._barrier_schedule)),
            self.n_ranks,
            self._mailbox,
            self._phase_seq,
            self.rankmap.node_of,
            delay=disk,
        )
        self.watch(procs)
        self.run_phase_guarded(done, label=label)
        return self.engine.now - start

    # -- recovery --------------------------------------------------------

    def recover(self, models: Dict[str, object], failure: NodeFailure) -> int:
        """Repair a declared failure; returns the restored window.

        Fences the epoch, remaps the dead node's ranks, restores the
        last committed coordinated checkpoint (python state + DES-costed
        disk reads + barrier).  Raises :class:`UnrecoverableError` when
        no replacement node or no committed checkpoint exists.  A
        *second* failure striking during the restore phase surfaces as a
        fresh :class:`NodeFailure` for the caller's recovery loop.
        """
        engine = self.engine
        displaced = self.rankmap.retire_node(failure.node) or list(failure.ranks)
        remaps = []
        try:
            for rank in displaced:
                remaps.append((rank, failure.node, self.rankmap.remap_rank(rank)))
        except LookupError as exc:
            raise UnrecoverableError(
                f"cannot recover from death of node {failure.node} "
                f"(ranks {failure.ranks}): {exc}"
            ) from exc

        # New incarnation: every live participant drops in-flight state.
        self.epoch += 1
        for node in self.rankmap.nodes():
            if self.membership.is_live(node):
                get_reliable(self.cluster.niu(node)).fence(self.epoch)
        self._mailbox.clear()
        for ex in self._exchangers:
            ex.abort_round()

        record = self.store.latest_good()
        if record is None:
            raise UnrecoverableError(
                f"node {failure.node} died before the first coordinated "
                "checkpoint committed; nothing to roll back to"
            )
        try:
            self.store.restore(models, record)
        except CheckpointError as exc:
            raise UnrecoverableError(
                f"restoring checkpoint w{record.window} failed: {exc}"
            ) from exc
        restore_des = self._run_phase(
            models, record, label=f"restore-w{record.window}"
        )
        self.recovery_log.append(
            {
                "node": failure.node,
                "ranks": list(failure.ranks),
                "crashed_at": failure.crashed_at,
                "declared_at": failure.declared_at,
                "detection_latency": failure.detection_latency,
                "epoch": self.epoch,
                "remaps": remaps,
                "restored_window": record.window,
                "rollback_des_seconds": restore_des,
            }
        )
        return record.window

    # -- reporting -------------------------------------------------------

    def overhead_report(self) -> dict:
        """Measured recovery-machinery costs, all in DES virtual time."""
        return {
            "heartbeat": {
                "period": self.config.heartbeat.period,
                "timeout": self.config.heartbeat.timeout,
                "beacons_sent": self.heartbeats.beacons_sent,
                "beacons_heard": self.heartbeats.beacons_heard,
            },
            "checkpoints": list(self.checkpoint_log),
            "checkpoint_des_seconds": sum(
                c["des_seconds"] for c in self.checkpoint_log
            ),
            "recoveries": list(self.recovery_log),
            "rollback_des_seconds": sum(
                r["rollback_des_seconds"] for r in self.recovery_log
            ),
            "epoch": self.epoch,
            "retired_nodes": list(self.rankmap.retired),
            "remaining_spares": list(self.rankmap.spares),
        }
