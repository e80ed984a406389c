"""repro.service — crash-safe ensemble scenario service.

The "heavy traffic front door" of the reproduction: a job-queue service
(async spool submission + multiprocess worker pool) whose headline
feature is its fault story, built on the robustness stack of PRs 1–4:

* **Durable queue** (:mod:`~repro.service.journal`,
  :mod:`~repro.service.queue`) — every lifecycle transition is a
  CRC-framed, fsynced record in an append-only journal, replayed on
  startup; a SIGKILL'd service resumes with no lost or duplicated jobs.
* **Supervised workers** (:mod:`~repro.service.supervisor`,
  :mod:`~repro.service.worker`) — forked processes that run attempt
  after attempt while each is clean (any failure retires the process),
  with work-loop heartbeats and wall-clock deadlines; wedged workers are
  killed and their jobs rescheduled with capped exponential backoff +
  deterministic jitter; deterministic failures are quarantined with
  their traceback instead of poisoning the pool.
* **Checkpoint resume** — interrupted OGCM jobs restart from their
  latest :class:`~repro.recover.CoordinatedCheckpointStore` shard set,
  not from step 0, and still finish bit-exact.
* **Graceful degradation** (:mod:`~repro.service.degrade`) — under
  backlog pressure, LOW-priority jobs are shed first (and only LOW),
  journaled and observable.
* **Chaos harness** (:mod:`~repro.service.chaos`, ``repro service
  --chaos``) — SIGKILLs random workers and the service itself mid-run
  and audits that every job completes bit-exact or is explicitly
  quarantined.
"""

from .api import EnsembleService, ServiceClient, ServiceConfig, run_batch, run_jobs
from .chaos import ChaosConfig, ChaosReport, build_ensemble, run_chaos
from .jobs import JobPriority, JobSpec, model_digest
from .journal import Journal, JournalError, JournalWarning
from .metrics import ServiceMetrics
from .queue import JobQueue
from .supervisor import Supervisor, SupervisorConfig, backoff_delay
from .worker import execute_job

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "EnsembleService",
    "JobPriority",
    "JobQueue",
    "JobSpec",
    "Journal",
    "JournalError",
    "JournalWarning",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "Supervisor",
    "SupervisorConfig",
    "backoff_delay",
    "build_ensemble",
    "execute_job",
    "model_digest",
    "run_batch",
    "run_chaos",
    "run_jobs",
]
