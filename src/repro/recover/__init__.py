"""Self-healing runtime: crash detection, coordinated checkpointing,
and rollback-restart recovery for the DES cluster.

PR 1 made the fabric survivable (reliable delivery under loss and
corruption); this package makes the *cluster* survivable.  A
:class:`~repro.faults.plan.CrashEvent` no longer ends the run:

* **Failure detection** (:mod:`repro.recover.membership`) — every
  participating node runs a heartbeat beacon and a failure detector as
  DES processes.  Beacons are real HIGH-priority packets through the
  Arctic fabric (their CPU and wire costs are charged by the clock);
  a node that misses beacons past the timeout is *declared dead* and
  the in-flight communication phase aborts with a structured
  :class:`NodeFailure` instead of a wedged barrier.
* **Coordinated checkpointing** (:mod:`repro.recover.checkpoint`) —
  every K coupling windows, all ranks write CRC-verified per-rank state
  shards (the hardened format of :mod:`repro.gcm.checkpoint`, sharded)
  and commit them with a manifest after a barrier-aligned, DES-costed
  commit protocol.
* **Rollback-restart** (:mod:`repro.recover.manager`) — on a declared
  failure the :class:`RecoveryManager` fences the reliable layer into a
  new epoch (stale retransmissions from the old incarnation are
  dropped), remaps the dead node's ranks onto a hot spare (or onto
  survivors), restores the last coordinated checkpoint, and lets the
  run recompute forward — finishing **bit-exact** with the fault-free
  baseline, with detection latency, rollback and recompute all priced
  in simulated time.

Two overlapping failures that exhaust the spare pool raise
:class:`UnrecoverableError` — a structured end, never a hang.
"""

from repro.recover.membership import (
    HeartbeatConfig,
    HeartbeatService,
    Membership,
    NodeFailure,
    PhiAccrualDetector,
    UnrecoverableError,
)
from repro.recover.checkpoint import (
    CheckpointLockTimeout,
    CoordinatedCheckpointStore,
    FileLock,
)
from repro.recover.manager import RecoveryConfig, RecoveryManager

__all__ = [
    "HeartbeatConfig",
    "HeartbeatService",
    "Membership",
    "NodeFailure",
    "PhiAccrualDetector",
    "UnrecoverableError",
    "CheckpointLockTimeout",
    "CoordinatedCheckpointStore",
    "FileLock",
    "RecoveryConfig",
    "RecoveryManager",
]
