"""Job vocabulary of the ensemble service.

A :class:`JobSpec` is a small, JSON-serializable description of one
scenario — the unit the service queues, schedules, retries and (when it
must) quarantines.  Specs are *deterministic by construction*: the job
id is a content hash of the canonical spec JSON, and every job kind the
worker knows how to run (:mod:`repro.service.worker`) produces a result
digest that is a pure function of the spec.  That determinism is what
lets the chaos harness assert bit-exactness: a job that was SIGKILL'd,
resumed from a checkpoint shard set and retried three times must hand
back the same digest as an undisturbed run.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Job kinds the worker can execute (see :mod:`repro.service.worker`).
JOB_KINDS = (
    "ocean", "sweep", "sleep", "flaky", "fail", "wedge", "campaign", "precision",
)


class JobPriority(enum.IntEnum):
    """Scheduling class; lower value is served first.  Under resource
    pressure the degrade policy sheds LOW jobs first (and only LOW)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


class JobStatus(str, enum.Enum):
    """Lifecycle states.  COMPLETED / QUARANTINED / SHED are terminal."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"
    SHED = "shed"


#: States a job can never leave.
TERMINAL = frozenset(
    {JobStatus.COMPLETED, JobStatus.QUARANTINED, JobStatus.SHED}
)


@dataclass(frozen=True)
class JobSpec:
    """One scenario submission: what to run, with what parameters.

    ``name`` (optional) overrides the derived content-hash id, e.g. for
    human-readable sweep members (``"sweep-dt1200"``).
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: JobPriority = JobPriority.NORMAL
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; have {JOB_KINDS}")

    @property
    def job_id(self) -> str:
        if self.name:
            return self.name
        canon = json.dumps(
            {"kind": self.kind, "params": self.params, "priority": int(self.priority)},
            sort_keys=True,
        )
        return "j" + hashlib.sha1(canon.encode()).hexdigest()[:10]

    def to_dict(self) -> dict:
        """JSON-serialisable form, as stored in journal submit records."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "priority": int(self.priority),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        return cls(
            kind=d["kind"],
            params=dict(d.get("params") or {}),
            priority=JobPriority(int(d.get("priority", JobPriority.NORMAL))),
            name=d.get("name"),
        )


@dataclass
class JobState:
    """The queue's view of one job (rebuilt from the journal on replay)."""

    spec: JobSpec
    submit_seq: int
    status: JobStatus = JobStatus.PENDING
    attempts: int = 0
    #: monotonic-clock time before which a retried job must not be
    #: rescheduled (capped exponential backoff).
    not_before: float = 0.0
    digest: Optional[str] = None
    reason: Optional[str] = None
    traceback: Optional[str] = None
    #: completion digests seen across the journal (duplicate COMPLETE
    #: records after a service crash must agree — divergence is a bug).
    digests_seen: list = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot of the job's current state."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "priority": int(self.spec.priority),
            "status": self.status.value,
            "attempts": self.attempts,
            "digest": self.digest,
            "reason": self.reason,
        }


def model_digest(model) -> str:
    """:func:`repro.gcm.state.model_digest`, imported on first call:
    loading the service must not load the model stack."""
    from repro.gcm.state import model_digest as digest

    return digest(model)
