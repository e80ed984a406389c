"""Journal-backed job queue: the durable state machine of the service.

Every transition is appended to the :class:`~repro.service.journal.Journal`
*before* the in-memory state changes, so the in-memory queue is always a
pure function of the journal prefix — replaying the journal after a
SIGKILL reconstructs it exactly.  Records:

========== ==========================================================
``submit``      a new job (dedup'd by job id; resubmission is a no-op)
``start``       a worker was spawned for attempt N
``fail``        attempt N failed; job goes back to PENDING with a
                ``retry_at`` backoff fence
``requeue``     a RUNNING job returned to PENDING without burning an
                attempt (service restart found it orphaned)
``complete``    terminal: result digest recorded
``quarantine``  terminal: deterministic failure, traceback captured
``shed``        terminal: dropped by the degrade policy
========== ==========================================================

Duplicate ``complete`` records can legally appear (a worker finished,
the COMPLETE record was torn, the job re-ran after restart) — they must
carry the *same* digest, because jobs are deterministic.  Replay keeps
the first and records every digest seen so the chaos harness can assert
no divergent duplicates exist.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .jobs import JobSpec, JobState, JobStatus
from .journal import Journal


class JobQueue:
    """In-memory queue state, sourced from and mirrored to a journal."""

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self.jobs: Dict[str, JobState] = {}
        self._seq = 0
        self.duplicate_submits = 0
        self.divergent_completes: List[str] = []

    # -- replay ----------------------------------------------------------

    def replay(self) -> int:
        """Rebuild state from the journal; returns the record count."""
        records = self.journal.replay()
        self.jobs.clear()
        self._seq = 0
        self.duplicate_submits = 0
        self.divergent_completes = []
        for record in records:
            self._apply(record)
        return len(records)

    def _apply(self, record: dict) -> None:
        typ = record.get("type")
        if typ == "submit":
            spec = JobSpec.from_dict(record["spec"])
            if spec.job_id in self.jobs:
                self.duplicate_submits += 1
                return
            self._seq += 1
            self.jobs[spec.job_id] = JobState(spec=spec, submit_seq=self._seq)
            return
        state = self.jobs.get(record.get("job_id"))
        if state is None:
            return  # a transition whose submit record was torn: ignore
        if typ == "start":
            if not state.terminal:
                state.status = JobStatus.RUNNING
                state.attempts = max(state.attempts, int(record["attempt"]))
        elif typ == "fail":
            if not state.terminal:
                state.status = JobStatus.PENDING
                state.attempts = max(state.attempts, int(record["attempt"]))
                state.not_before = float(record.get("retry_at", 0.0))
                state.reason = record.get("reason")
        elif typ == "requeue":
            if not state.terminal:
                state.status = JobStatus.PENDING
                state.not_before = 0.0
        elif typ == "complete":
            digest = record.get("digest")
            state.digests_seen.append(digest)
            if state.status != JobStatus.COMPLETED:
                state.status = JobStatus.COMPLETED
                state.digest = digest
                state.reason = None
            elif digest != state.digest and state.job_id not in self.divergent_completes:
                self.divergent_completes.append(state.job_id)
        elif typ == "quarantine":
            if state.status != JobStatus.COMPLETED:
                state.status = JobStatus.QUARANTINED
                state.reason = record.get("reason")
                state.traceback = record.get("traceback")
        elif typ == "shed":
            if not state.terminal:
                state.status = JobStatus.SHED
                state.reason = record.get("reason")

    # -- transitions (journal first, then memory) ------------------------

    def _record(self, record: dict) -> None:
        self.journal.append(record)
        self._apply(record)

    def submit(self, spec: JobSpec) -> str:
        """Admit a job (idempotent by job id); returns the job id."""
        if spec.job_id in self.jobs:
            self.duplicate_submits += 1
            return spec.job_id
        self._record({"type": "submit", "spec": spec.to_dict()})
        return spec.job_id

    def mark_started(self, job_id: str, attempt: int) -> None:
        """Journal a PENDING -> RUNNING transition for attempt ``attempt``."""
        self._record({"type": "start", "job_id": job_id, "attempt": attempt})

    def mark_failed(
        self, job_id: str, attempt: int, reason: str, retry_at: float
    ) -> None:
        """Journal a failed attempt; the job re-pends fenced until ``retry_at``."""
        self._record(
            {
                "type": "fail",
                "job_id": job_id,
                "attempt": attempt,
                "reason": reason,
                "retry_at": retry_at,
            }
        )

    def mark_requeued(self, job_id: str, reason: str) -> None:
        """Journal a RUNNING -> PENDING return without burning an attempt."""
        self._record({"type": "requeue", "job_id": job_id, "reason": reason})

    def mark_completed(self, job_id: str, digest: Optional[str], **meta) -> None:
        """Journal terminal success with the job's bit-exact ``digest``."""
        self._record(
            {"type": "complete", "job_id": job_id, "digest": digest, **meta}
        )

    def mark_quarantined(
        self, job_id: str, reason: str, traceback: Optional[str] = None
    ) -> None:
        """Journal terminal failure, keeping the reason and traceback."""
        self._record(
            {
                "type": "quarantine",
                "job_id": job_id,
                "reason": reason,
                "traceback": traceback,
            }
        )

    def mark_shed(self, job_id: str, reason: str) -> None:
        """Journal a load-shedding drop of a still-PENDING job."""
        self._record({"type": "shed", "job_id": job_id, "reason": reason})

    # -- scheduling views ------------------------------------------------

    def next_ready(self, now: Optional[float] = None) -> Optional[JobState]:
        """The highest-priority PENDING job whose backoff fence has
        passed (FIFO within a priority class), or None."""
        now = time.monotonic() if now is None else now
        best: Optional[JobState] = None
        for state in self.jobs.values():
            if state.status is not JobStatus.PENDING or state.not_before > now:
                continue
            if best is None or (
                (state.spec.priority, state.submit_seq)
                < (best.spec.priority, best.submit_seq)
            ):
                best = state
        return best

    def pending(self) -> List[JobState]:
        """Every job currently PENDING (fenced or not)."""
        return [s for s in self.jobs.values() if s.status is JobStatus.PENDING]

    def all_terminal(self) -> bool:
        """True once every submitted job reached a terminal status."""
        return all(s.terminal for s in self.jobs.values())

    def counts(self) -> Dict[str, int]:
        """Job counts by status value (every status present, maybe zero)."""
        out = {status.value: 0 for status in JobStatus}
        for state in self.jobs.values():
            out[state.status.value] += 1
        return out

    def earliest_fence(self) -> Optional[float]:
        """The soonest ``not_before`` among PENDING jobs still fenced."""
        fences = [
            s.not_before
            for s in self.jobs.values()
            if s.status is JobStatus.PENDING and s.not_before > 0.0
        ]
        return min(fences) if fences else None
