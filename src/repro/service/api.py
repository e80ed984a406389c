"""The ensemble service: async submission client + serving loop.

Layout of a service root directory::

    root/
        journal.bin      <- CRC-framed lifecycle journal (source of truth)
        spool/<id>.json  <- submitted-but-not-yet-admitted jobs
        jobs/<id>/       <- per-job run dir (heartbeat, ckpt/, result.json)
        status.json      <- schema-validated live metrics snapshot

**Submission is asynchronous and crash-safe**: :meth:`ServiceClient.submit`
atomically drops a spec into ``spool/`` and returns the job id
immediately — no service needs to be running.  The serve loop ingests
the spool (journal ``submit`` first, unlink after), so a crash between
the two leaves the spool file in place and the dedup'd journal absorbs
the replayed ingest.

**Startup is a recovery**: replay the journal (truncating any torn
tail), SIGKILL workers orphaned by a previous incarnation, adopt
completions whose ``result.json`` landed after the journal record was
lost, and requeue jobs that were RUNNING when the last incarnation
died.  A SIGKILL'd service therefore resumes with no lost and no
duplicated jobs — the property the chaos harness
(:mod:`repro.service.chaos`) asserts under fire.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.durable import write_json_atomic

from .degrade import shed_excess
from .jobs import JobSpec, JobStatus
from .journal import Journal
from .metrics import ServiceMetrics
from .queue import JobQueue
from .supervisor import Supervisor, SupervisorConfig
from .worker import PID_NAME, execute_job, read_result

JOURNAL_NAME = "journal.bin"
SPOOL_DIR = "spool"
JOBS_DIR = "jobs"

#: longest the serve loop sleeps between supervision passes (a worker's
#: report or death, or a backoff fence coming due, ends the sleep early).
POLL_INTERVAL_S = 0.02
#: seconds between ``status.json`` refreshes.
STATUS_INTERVAL_S = 0.25


@dataclass
class ServiceConfig:
    """Everything the serve loop needs tuning for."""

    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class ServiceClient:
    """Submit jobs and observe results; safe with no service running."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.spool = self.root / SPOOL_DIR
        self.spool.mkdir(parents=True, exist_ok=True)

    def submit(self, spec: JobSpec) -> str:
        """Queue a job asynchronously; returns its id immediately."""
        write_json_atomic(self.spool / f"{spec.job_id}.json", spec.to_dict())
        return spec.job_id

    def submit_many(self, specs: Iterable[JobSpec]) -> List[str]:
        """Spool a batch of specs; returns their job ids in order."""
        return [self.submit(spec) for spec in specs]

    def status(self) -> Dict[str, dict]:
        """Current state of every known job (read-only journal replay)."""
        queue = JobQueue(Journal(self.root / JOURNAL_NAME))
        import warnings

        with warnings.catch_warnings():
            # a torn tail while the service is mid-crash is expected here
            warnings.simplefilter("ignore")
            queue.replay()
        return {job_id: state.as_dict() for job_id, state in queue.jobs.items()}


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------


class EnsembleService:
    """The serving side: journal, queue, supervisor, degrade policy."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config or ServiceConfig()
        self.journal = Journal(self.root / JOURNAL_NAME)
        self.queue = JobQueue(self.journal)
        self.metrics = ServiceMetrics()
        self.jobs_root = self.root / JOBS_DIR
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.spool = self.root / SPOOL_DIR
        self.spool.mkdir(parents=True, exist_ok=True)
        self.supervisor = Supervisor(
            self.queue, self.jobs_root, self.config.supervisor, self.metrics
        )
        self._started = False

    # -- startup recovery ------------------------------------------------

    def startup(self) -> dict:
        """Recover state from disk; returns a summary of what was found."""
        had_journal = (self.root / JOURNAL_NAME).exists()
        self.journal.open()  # truncates any torn tail first
        n_records = self.queue.replay()
        if had_journal and n_records:
            self.metrics.restarts = 1
        killed = self._kill_orphans()
        adopted = self._adopt_results()
        requeued = self._requeue_running()
        self._started = True
        return {
            "records": n_records,
            "orphans_killed": killed,
            "completions_adopted": adopted,
            "requeued": requeued,
        }

    def _kill_orphans(self) -> int:
        """SIGKILL workers left over from a dead service incarnation.

        Epoch fencing: an orphan may still be healthy, but it reports to
        nobody — and letting it race a rescheduled twin for the same
        run directory is how interleaved checkpoints happen.
        """
        killed = 0
        for pid_file in self.jobs_root.glob(f"*/{PID_NAME}"):
            try:
                pid = int(pid_file.read_text().strip())
            except (OSError, ValueError):
                pid = None
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed += 1
                except (OSError, ProcessLookupError):
                    pass
            try:
                pid_file.unlink()
            except OSError:
                pass
        return killed

    def _adopt_results(self) -> int:
        """Complete jobs whose result file survived a lost COMPLETE record."""
        adopted = 0
        for state in list(self.queue.jobs.values()):
            if state.terminal:
                continue
            result = read_result(self.jobs_root / state.job_id, state.job_id)
            if result is not None:
                self.queue.mark_completed(
                    state.job_id,
                    result.get("digest"),
                    attempt=result.get("attempt", state.attempts),
                    steps=result.get("steps"),
                    adopted=True,
                )
                self.metrics.count("completed")
                self.metrics.count("completions_adopted")
                adopted += 1
        return adopted

    def _requeue_running(self) -> int:
        """RUNNING jobs with no live worker go back to PENDING (no
        attempt burned: the service died, not the job)."""
        requeued = 0
        for state in self.queue.jobs.values():
            if state.status is JobStatus.RUNNING:
                self.queue.mark_requeued(state.job_id, "service restart")
                requeued += 1
        return requeued

    # -- the serve loop --------------------------------------------------

    def ingest_spool(self) -> int:
        """Admit spooled submissions: journal first, unlink after."""
        admitted = 0
        for path in sorted(self.spool.glob("*.json")):
            try:
                spec = JobSpec.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError):
                # an unreadable submission is quarantine-at-the-door
                try:
                    path.replace(path.with_suffix(".rejected"))
                except OSError:
                    pass
                self.metrics.count("rejected_submissions")
                continue
            self.queue.submit(spec)
            self.metrics.count("submitted")
            admitted += 1
            try:
                path.unlink()
            except OSError:
                pass
        return admitted

    def step(self) -> List[dict]:
        """One pass: supervise, ingest, shed, schedule, dismiss — reaping
        first, so that a worker a clean attempt freed takes the next
        ready job in the same pass, or is dismissed by its end."""
        if not self._started:
            self.startup()
        now = time.monotonic()
        events = self.supervisor.poll(now)
        self.ingest_spool()
        shed_excess(self.queue, self.metrics)
        while self.supervisor.free_slots() > 0:
            state = self.queue.next_ready(now)
            if state is None:
                break
            self.supervisor.spawn(state)
        self.supervisor.dismiss_idle()
        return events

    def serve(self, drain: bool = False, max_wall_s: Optional[float] = None) -> dict:
        """Run the service loop.

        With ``drain=True`` the loop exits once every admitted job is
        terminal and the spool is empty (batch mode — what the chaos
        harness and CI smoke use); otherwise it serves until
        ``max_wall_s`` (or forever).  Returns the final summary record.
        """
        if not self._started:
            self.startup()
        t0 = time.monotonic()
        last_status = 0.0
        try:
            while True:
                self.step()
                now = time.monotonic()
                if now - last_status >= STATUS_INTERVAL_S:
                    self.metrics.write_status(self.root, self.queue)
                    last_status = now
                if max_wall_s is not None and now - t0 > max_wall_s:
                    break
                if (
                    drain
                    and self.queue.all_terminal()
                    and not any(self.spool.glob("*.json"))
                ):
                    break
                timeout = POLL_INTERVAL_S
                fence = self.queue.earliest_fence()
                if fence is not None and fence > now:
                    timeout = min(timeout, fence - now)
                self.supervisor.wait(timeout)
        finally:
            self.supervisor.kill_all()
            summary = self.metrics.write_status(self.root, self.queue)
            self.journal.close()
        return summary

    def shutdown(self) -> None:
        """Kill every live worker and close the journal handle."""
        self.supervisor.kill_all()
        self.journal.close()
        self._started = False


def run_jobs(
    root: Union[str, pathlib.Path],
    specs: Iterable[JobSpec],
    config: Optional[ServiceConfig] = None,
    max_wall_s: Optional[float] = None,
) -> Tuple[List[str], List[Optional[dict]], dict]:
    """Run a batch to completion: submit ``specs``, drain a service on
    ``root``, read every job's ``result.json``.

    Returns ``(job_ids, results, summary)`` with ids and results in
    submission order; a job that left no valid result (quarantined,
    shed, or cut off by ``max_wall_s``) has ``None`` in its slot.
    """
    root = pathlib.Path(root)
    job_ids = ServiceClient(root).submit_many(specs)
    summary = EnsembleService(root, config).serve(drain=True, max_wall_s=max_wall_s)
    results = [read_result(root / JOBS_DIR / job_id, job_id) for job_id in job_ids]
    return job_ids, results, summary


def run_batch(
    kind: str,
    params: Sequence[dict],
    root: Union[str, pathlib.Path, None] = None,
    max_workers: int = 4,
    deadline_s: float = 120.0,
) -> List[Optional[dict]]:
    """The one loop that runs candidates as jobs: a ``kind`` job per
    params dict, through a service drained on ``root`` (``max_workers``
    processes, ``deadline_s`` per attempt) or, with ``root=None``,
    through :func:`execute_job` in this process.  Results come back in
    order; a job the service quarantined or shed leaves ``None``."""
    specs = [JobSpec(kind, p) for p in params]
    if root is None:
        return [execute_job(spec) for spec in specs]
    config = ServiceConfig(
        supervisor=SupervisorConfig(max_workers=max_workers, deadline_s=deadline_s)
    )
    return run_jobs(root, specs, config)[1]
