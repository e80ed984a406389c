"""Headline reliability demo: a coupled GCM run under injected faults.

Two identical coupled atmosphere-ocean integrations ship their boundary
conditions through the simulated Arctic fabric: one on a clean fabric,
one with a seeded :class:`~repro.faults.plan.FaultPlan` dropping and
corrupting packets.  With the reliable-delivery layer on, the faulty
run must finish **bit-identical** to the clean one; the price is extra
simulated wire time (retransmissions, timeouts), reported as overhead.

With retransmits disabled (``reliable=False``) the same plan wedges the
raw VI exchange; the engine's deadlock watchdog converts the hang into
a diagnostic naming the blocked ranks, which the result carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.faults.inject import FaultInjector
from repro.faults.plan import CrashEvent, FaultPlan
from repro.gcm.coupled import DEMO_SHAPE, coupled_model
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.sim import DeadlockError


@dataclass
class FaultDemoResult:
    """Outcome of one clean-vs-faulty coupled comparison."""

    reliable: bool
    windows: int
    plan: FaultPlan
    #: True when every prognostic field of both components matches the
    #: clean run bit-for-bit (always False if the faulty run deadlocked).
    bit_exact: bool
    #: Simulated seconds the coupler spent on the wire, per run.
    wire_time_clean: float
    wire_time_faulty: float
    #: Injected-fault and fabric counters from the faulty run.
    fault_counters: dict = field(default_factory=dict)
    #: Reliable-protocol counters (retransmissions, ACKs, ...) from the
    #: faulty run; empty in raw mode.
    protocol: dict = field(default_factory=dict)
    #: ``(link, dropped, corrupted)`` for links that saw faults.
    per_link: list = field(default_factory=list)
    #: Watchdog diagnostic when the faulty raw-mode run deadlocked.
    deadlock: Optional[str] = None

    @property
    def overhead(self) -> float:
        """Extra simulated wire seconds the faults cost."""
        return self.wire_time_faulty - self.wire_time_clean

    @property
    def overhead_pct(self) -> float:
        if self.wire_time_clean <= 0:
            return 0.0
        return 100.0 * self.overhead / self.wire_time_clean


def _global_state(model) -> dict:
    out = {}
    for comp, m in (("atm", model.atmosphere), ("ocn", model.ocean)):
        for name in FIELDS_3D + FIELDS_2D:
            out[f"{comp}.{name}"] = m.state.to_global(name)
    return out


def _states_equal(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[k], b[k]) for k in a)


def run_coupled_fault_demo(
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    drop: float = 0.01,
    corrupt: float = 0.0,
    windows: int = 2,
    reliable: bool = True,
) -> FaultDemoResult:
    """Run the clean-vs-faulty coupled comparison; returns the result.

    ``plan`` overrides the ``seed``/``drop``/``corrupt`` shorthand.  The
    clean reference always runs with reliable delivery on (on a clean
    fabric the reliable layer is loss-free, so its state doubles as the
    fault-free answer for both modes); only the faulty run honours
    ``reliable``.
    """
    if plan is None:
        plan = FaultPlan(seed=seed, drop_prob=drop, corrupt_prob=corrupt)
    n_nodes = DEMO_SHAPE["px"] * DEMO_SHAPE["py"]

    # -- clean reference ------------------------------------------------
    clean_cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes))
    clean = coupled_model(cluster=clean_cluster, **DEMO_SHAPE)
    clean.run(windows)
    clean_state = _global_state(clean)

    # -- faulty run -----------------------------------------------------
    faulty_cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes))
    injector = FaultInjector(faulty_cluster.fabric, plan)
    faulty = None
    deadlock = None
    try:
        faulty = coupled_model(
            cluster=faulty_cluster, reliable=reliable, **DEMO_SHAPE
        )
        faulty.run(windows)
    except DeadlockError as exc:
        deadlock = str(exc)

    bit_exact = (
        deadlock is None
        and faulty is not None
        and _states_equal(clean_state, _global_state(faulty))
    )
    return FaultDemoResult(
        reliable=reliable,
        windows=windows,
        plan=plan,
        bit_exact=bit_exact,
        wire_time_clean=clean.des_elapsed,
        wire_time_faulty=faulty.des_elapsed if faulty is not None else float("nan"),
        fault_counters=injector.counters(),
        protocol=faulty.reliability_stats() if faulty is not None and deadlock is None else {},
        per_link=injector.per_link_counters(),
        deadlock=deadlock,
    )


# ---------------------------------------------------------------------------
# Crash-recovery headline demo
# ---------------------------------------------------------------------------


@dataclass
class CrashRecoveryResult:
    """Outcome of one mid-run node-crash experiment."""

    recover: bool
    reliable: bool
    windows: int
    crash_node: int
    crash_time: float
    #: True when the self-healed run matches the fault-free run
    #: bit-for-bit in every prognostic field of both components.
    bit_exact: bool
    #: Virtual seconds the fault-free reference run took end-to-end.
    engine_time_clean: float
    #: Virtual seconds the crashed run took (NaN if it died).
    engine_time_faulty: float
    #: Seconds from the physical crash to the survivors' declaration.
    detection_latency: Optional[float] = None
    #: Checkpoint window the run rolled back to.
    restored_window: Optional[int] = None
    #: ``(rank, dead_node, new_node)`` placements after recovery.
    remaps: list = field(default_factory=list)
    #: DES seconds spent taking committed checkpoints (the steady tax).
    checkpoint_tax: float = 0.0
    #: DES seconds of the rollback itself (disk reads + barrier).
    rollback_cost: float = 0.0
    #: DES seconds of re-running windows already computed pre-crash.
    recompute_cost: float = 0.0
    #: Full :meth:`~repro.recover.RecoveryManager.overhead_report`.
    report: dict = field(default_factory=dict)
    #: The structured error when ``recover`` is off (DeliveryError for
    #: the reliable layer, the watchdog's DeadlockError diagnostic for
    #: raw VI) or when recovery itself gave up (UnrecoverableError).
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def total_overhead(self) -> float:
        """Extra virtual seconds the crash + recovery machinery cost."""
        return self.engine_time_faulty - self.engine_time_clean


def run_crash_recovery_demo(
    crash_node: int = 1,
    crash_time: Optional[float] = None,
    extra_crashes: tuple = (),
    windows: int = 3,
    recover: bool = True,
    reliable: bool = True,
    checkpoint_interval: int = 2,
    n_spares: int = 1,
    allow_redistribute: bool = False,
) -> CrashRecoveryResult:
    """Kill a node mid-run and (optionally) self-heal to a bit-exact finish.

    Runs the coupled integration twice: once fault-free as the reference
    answer, once with ``crash_node`` fail-stopping at ``crash_time``
    (default: about halfway through the post-first-checkpoint part of
    the reference run, so there is a committed checkpoint to roll back
    to).  With ``recover`` on, the reference run is itself
    recovery-armed (heartbeats + checkpoints, no fault) so the two
    timelines are comparable; the crashed run detects the death by
    missed heartbeats, remaps the dead node's ranks onto a hot spare,
    rolls back to the last coordinated checkpoint and recomputes — the
    result reports the measured detection latency, checkpoint tax,
    rollback and recompute costs, all in virtual time.

    With ``recover`` off the same crash surfaces as a structured error
    instead of a hang: a DeliveryError from the reliable layer
    (``reliable=True``) or the crash-annotated watchdog DeadlockError
    naming the wedged ranks (``reliable=False``).

    ``extra_crashes`` adds further ``(node, time)`` deaths to the plan
    (``time=None`` means shortly after the primary crash) — killing a
    rank node *and* its replacement spare this way demonstrates the
    spare-pool-exhausted :class:`~repro.recover.UnrecoverableError`.
    """
    from repro.recover import RecoveryConfig

    # The fat-tree wants a power-of-two endpoint count; extras idle.
    n_nodes = 2
    while n_nodes < DEMO_SHAPE["px"] * DEMO_SHAPE["py"] + n_spares:
        n_nodes *= 2

    recovery = (
        RecoveryConfig(
            checkpoint_interval=checkpoint_interval,
            allow_redistribute=allow_redistribute,
        )
        if recover
        else None
    )

    # -- fault-free reference -------------------------------------------
    # Recovery-armed when the crashed run will be, so the two timelines
    # pay the same heartbeat + checkpoint tax and differ only by the
    # crash (checkpoints read state, never perturb it).
    clean_cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes, n_spares=n_spares))
    clean = coupled_model(cluster=clean_cluster, recovery=recovery, **DEMO_SHAPE)
    clean.run(windows)
    clean_state = _global_state(clean)
    engine_time_clean = clean_cluster.engine.now
    clean_tax = 0.0
    first_commit = 0.0
    if clean.recovery is not None:
        clean_rep = clean.recovery.overhead_report()
        clean_tax = clean_rep["checkpoint_des_seconds"]
        first_commit = clean_rep["checkpoints"][0]["committed_at"]

    if crash_time is None:
        # Land after the first checkpoint commits, mid-way through what
        # remains — there is always something to roll back to.
        crash_time = first_commit + 0.5 * (engine_time_clean - first_commit)

    # -- crashed run ----------------------------------------------------
    crashes = [CrashEvent(node=crash_node, start=crash_time)]
    for node, when in extra_crashes:
        if when is None:
            when = crash_time + 0.25 * engine_time_clean
        crashes.append(CrashEvent(node=int(node), start=float(when)))
    plan = FaultPlan(crashes=tuple(crashes))
    faulty_cluster = HyadesCluster(HyadesConfig(n_nodes=n_nodes, n_spares=n_spares))
    FaultInjector(faulty_cluster.fabric, plan)
    result = CrashRecoveryResult(
        recover=recover,
        reliable=reliable,
        windows=windows,
        crash_node=crash_node,
        crash_time=crash_time,
        bit_exact=False,
        engine_time_clean=engine_time_clean,
        engine_time_faulty=float("nan"),
    )
    faulty = None
    try:
        faulty = coupled_model(
            cluster=faulty_cluster, reliable=reliable, recovery=recovery,
            **DEMO_SHAPE,
        )
        faulty.run(windows)
    except Exception as exc:  # DeliveryError / DeadlockError / Unrecoverable
        result.error = str(exc)
        result.error_type = type(exc).__name__
        return result

    result.bit_exact = _states_equal(clean_state, _global_state(faulty))
    result.engine_time_faulty = faulty_cluster.engine.now
    if recover and faulty.recovery is not None:
        rep = faulty.recovery.overhead_report()
        result.report = rep
        result.checkpoint_tax = rep["checkpoint_des_seconds"]
        result.rollback_cost = rep["rollback_des_seconds"]
        if rep["recoveries"]:
            rec = rep["recoveries"][0]
            result.detection_latency = rec["detection_latency"]
            result.restored_window = rec["restored_window"]
            result.remaps = list(rec["remaps"])
        # The reference already paid the steady checkpoint tax; only the
        # *re-taken* checkpoints after rollback are crash overhead.
        extra_tax = result.checkpoint_tax - clean_tax
        overhead = result.total_overhead
        result.recompute_cost = max(
            0.0,
            overhead
            - extra_tax
            - result.rollback_cost
            - (result.detection_latency or 0.0),
        )
    return result
