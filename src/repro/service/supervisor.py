"""Worker supervision: liveness, deadlines, retry/backoff, quarantine.

The supervisor owns the worker processes
(:func:`repro.service.worker.worker_loop`).  One is **forked** when a
job is ready and no freed worker is at hand, runs **attempts** for as
long as each is clean and a job is ready in the pass that reaps it, and
is then **dismissed** over its pipe; after any attempt that was not
clean it is dead or SIGKILLed, never handed another.  There is no idle
pool, and the serving parent imports none of the model stack the
workers keep warm (docs/service.md has the sizing).

The supervisor journals each attempt's ``start``, then watches for the
worker's **report** of a clean attempt and three failure channels:

* **exit** — the process died.  A valid ``result.json`` means success
  (even if the exit itself was messy); an ``error.json`` means a caught
  failure with a traceback; neither means the worker was killed
  (SIGKILL, OOM) mid-run.
* **wedge** — the process is alive but its heartbeat file has gone
  stale past ``heartbeat_timeout_s``.  The supervisor SIGKILLs it —
  a wedged worker must never wedge the pool.
* **deadline** — wall-clock overrun past the *effective* deadline,
  beats or not.  The supervisor learns each job kind's
  completed-attempt runtimes and tightens the fixed ``deadline_s``
  ceiling to a quantile-times-margin of what this kind actually takes — and an overrun against the *learned* deadline
  on a worker that is still heartbeating is treated as *slow, not
  dead*: the attempt is killed but the job is **requeued** without
  burning an attempt (``MAX_SLOW_REQUEUES`` bounds the loop), so a
  degraded host delays a job instead of quarantining it.  Overruns of
  the fixed ceiling keep the classic retry/quarantine path.

Failed attempts reschedule with capped exponential backoff plus
deterministic jitter (seeded from job id and attempt, so a replayed
run schedules identically).  A job that fails ``max_attempts`` times is
*quarantined* with its captured traceback: the poison list absorbs it
instead of letting it poison the pool.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pathlib
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.durable import atomic_write

from .jobs import JobState
from .metrics import ServiceMetrics
from .queue import JobQueue
from .worker import (
    HEARTBEAT_NAME,
    PID_NAME,
    read_error,
    read_result,
    worker_loop,
)


#: jitter fraction on top of the exponential delay (0.25 = up to +25%).
BACKOFF_JITTER = 0.25
#: quantile of observed runtimes the learned deadline anchors on.
DEADLINE_QUANTILE = 0.95
#: learned deadline = margin * quantile (then clamped to the floor and
#: the fixed ``deadline_s`` ceiling).
DEADLINE_MARGIN = 3.0
#: completed attempts of a kind before its learned deadline applies.
DEADLINE_MIN_SAMPLES = 3
#: never learn a deadline below this — keeps adaptation inert for
#: sub-second test/chaos workloads.
ADAPTIVE_DEADLINE_FLOOR_S = 1.0
#: slow-but-alive requeues per job before overruns fall back to the
#: retry/quarantine path (bounds the requeue loop on a job that is
#: genuinely mis-sized rather than merely on a degraded host).
MAX_SLOW_REQUEUES = 2
#: per-kind runtime samples retained (FIFO).
RUNTIME_HISTORY_CAP = 64


@dataclass
class SupervisorConfig:
    """Pool size, liveness thresholds and the retry policy."""

    max_workers: int = 4
    #: seconds without a heartbeat before a live worker is declared wedged.
    heartbeat_timeout_s: float = 5.0
    #: hard wall-clock ceiling per attempt.
    deadline_s: float = 120.0
    #: attempts before a job is quarantined.
    max_attempts: int = 5
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0


def backoff_delay(job_id: str, attempt: int, cfg: SupervisorConfig) -> float:
    """Capped exponential backoff with deterministic per-(job, attempt)
    jitter, so two service incarnations compute the same schedule."""
    base = min(cfg.backoff_base_s * (2.0 ** max(attempt - 1, 0)), cfg.backoff_cap_s)
    u = (zlib.crc32(f"{job_id}:{attempt}".encode()) & 0xFFFFFFFF) / 2**32
    return base * (1.0 + BACKOFF_JITTER * u)


@dataclass
class WorkerHandle:
    """One live attempt: the process, the supervisor's end of its pipe,
    and the attempt's on-disk evidence trail."""

    job_id: str
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    job_dir: pathlib.Path
    started_mono: float
    kind: str = ""
    last_beat_mono: float = field(init=False)

    def __post_init__(self) -> None:
        self.last_beat_mono = self.started_mono

    def heartbeat_age(self, now: float) -> float:
        """Seconds since the worker last proved liveness."""
        try:
            mtime = (self.job_dir / HEARTBEAT_NAME).stat().st_mtime
        except OSError:
            return now - self.last_beat_mono
        # Map the wall-clock mtime onto the monotonic axis conservatively:
        # a beat newer than the last one we saw resets the age.
        age_wall = time.time() - mtime
        age_mono = now - self.last_beat_mono
        age = min(max(age_wall, 0.0), age_mono)
        self.last_beat_mono = now - age
        return age

    def runtime(self, now: float) -> float:
        """Seconds this attempt has been running as of monotonic ``now``."""
        return now - self.started_mono


class Supervisor:
    """Spawns, watches and reaps worker processes for a job queue."""

    def __init__(
        self,
        queue: JobQueue,
        jobs_root: pathlib.Path,
        config: Optional[SupervisorConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.queue = queue
        self.jobs_root = pathlib.Path(jobs_root)
        self.config = config or SupervisorConfig()
        self.metrics = metrics or ServiceMetrics()
        self.running: Dict[str, WorkerHandle] = {}
        #: Handles reaped clean in this pass: each one's process waits
        #: on its pipe for :meth:`spawn` or :meth:`dismiss_idle`.
        self.idle: List[WorkerHandle] = []
        #: Completed-attempt runtimes per job kind (adaptive deadlines).
        self.runtimes: Dict[str, List[float]] = {}
        #: Slow-but-alive requeues already granted per job id.
        self.slow_requeues: Dict[str, int] = {}
        # fork: a worker starts with what the service has imported and
        # imports the model stack itself; fall back where there is no fork.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # -- spawning --------------------------------------------------------

    def free_slots(self) -> int:
        """How many more workers may be spawned right now."""
        return max(self.config.max_workers - len(self.running), 0)

    def job_dir(self, job_id: str) -> pathlib.Path:
        """The per-job working directory under the jobs root."""
        return self.jobs_root / job_id

    def spawn(self, state: JobState) -> WorkerHandle:
        """Start the next attempt of ``state``: in a worker this pass
        freed if there is one, else in a fresh fork."""
        job_id = state.job_id
        attempt = state.attempts + 1
        job_dir = self.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        self.queue.mark_started(job_id, attempt)
        attempt_args = (state.spec.to_dict(), str(job_dir), attempt)
        if self.idle:
            freed = self.idle.pop()
            process, conn = freed.process, freed.conn
            conn.send(attempt_args)
        else:
            conn, worker_conn = self._ctx.Pipe()
            # daemon: an interpreter exiting without kill_all() ends its
            # workers instead of joining them forever
            process = self._ctx.Process(
                target=worker_loop, args=(worker_conn, attempt_args), daemon=True
            )
            process.start()
            worker_conn.close()
            self.metrics.count("workers_spawned")
        # atomic: a service killed mid-write must not leave an empty file
        # for the next incarnation's orphan sweep
        with atomic_write(job_dir / PID_NAME, "w") as fh:
            fh.write(str(process.pid))
        handle = WorkerHandle(
            job_id=job_id,
            attempt=attempt,
            process=process,
            conn=conn,
            job_dir=job_dir,
            started_mono=time.monotonic(),
            kind=state.spec.kind,
        )
        self.running[job_id] = handle
        return handle

    def dismiss_idle(self) -> None:
        """Tell every freed worker that was not reused to exit, and
        collect it — a message, not a closed pipe: forked siblings hold
        copies of this end, so closing it delivers no EOF."""
        for freed in self.idle:
            try:
                freed.conn.send(None)
            except OSError:
                pass  # already gone
            freed.process.join(timeout=5.0)
            self._retire(freed)
        self.idle.clear()

    # -- adaptive deadlines ----------------------------------------------

    def record_runtime(self, kind: str, seconds: float) -> None:
        """Fold one completed attempt's runtime into the kind's history."""
        history = self.runtimes.setdefault(kind, [])
        history.append(seconds)
        if len(history) > RUNTIME_HISTORY_CAP:
            del history[: len(history) - RUNTIME_HISTORY_CAP]

    def learned_deadline(self, kind: str) -> Optional[float]:
        """The quantile-of-observed-runtimes deadline for ``kind``
        (None while under-sampled)."""
        history = self.runtimes.get(kind)
        if history is None or len(history) < DEADLINE_MIN_SAMPLES:
            return None
        ordered = sorted(history)
        idx = min(int(DEADLINE_QUANTILE * len(ordered)), len(ordered) - 1)
        learned = DEADLINE_MARGIN * ordered[idx]
        return max(learned, ADAPTIVE_DEADLINE_FLOOR_S)

    def effective_deadline(self, kind: str) -> float:
        """The deadline actually enforced for ``kind`` right now."""
        learned = self.learned_deadline(kind)
        if learned is None:
            return self.config.deadline_s
        return min(learned, self.config.deadline_s)

    # -- polling ---------------------------------------------------------

    def poll(self, now: Optional[float] = None) -> List[dict]:
        """One supervision pass; returns the lifecycle events it caused."""
        now = time.monotonic() if now is None else now
        events: List[dict] = []
        for handle in list(self.running.values()):
            if handle.conn.poll() or not handle.process.is_alive():
                events.append(self._reap(handle))
                continue
            if handle.heartbeat_age(now) > self.config.heartbeat_timeout_s:
                events.append(self._kill(handle, "wedged (heartbeat stale)"))
                continue
            deadline = self.effective_deadline(handle.kind)
            if handle.runtime(now) <= deadline:
                continue
            # Overrun.  Against the *learned* deadline, a beating worker
            # is slow-not-dead: requeue without burning an attempt (the
            # wedge branch above already proved the heartbeat is fresh).
            slow = (
                deadline < self.config.deadline_s
                and self.slow_requeues.get(handle.job_id, 0) < MAX_SLOW_REQUEUES
            )
            if slow:
                events.append(self._requeue_slow(handle, deadline))
            else:
                events.append(self._kill(handle, "deadline exceeded"))
        return events

    def wait(self, timeout: float) -> None:
        """Sleep until a worker reports, one dies, or ``timeout`` passes."""
        live = self.running.values()
        multiprocessing.connection.wait(
            [h.conn for h in live] + [h.process.sentinel for h in live], timeout
        )

    @staticmethod
    def _retire(handle: WorkerHandle) -> None:
        """End the handle's process for good (a no-op on a dead one)."""
        handle.process.kill()
        handle.process.join(timeout=5.0)
        handle.conn.close()

    def _settle(self, handle: WorkerHandle, kill: bool) -> Optional[dict]:
        """Take a finished attempt off the books; returns its
        ``completed`` event if it left a valid result, else None.

        The process is kept only if it reported a clean attempt and the
        result bears that out.  Otherwise — it died, raised, or is to be
        killed — it is SIGKILLed and collected *before* the result is
        read: a worker may cross the line while we aim, and a valid
        result wins over whatever ended the attempt.
        """
        try:
            reported = not kill and handle.conn.poll() and handle.conn.recv()
        except (EOFError, OSError):  # the pipe's other end died with it
            reported = False
        if not reported:
            self._retire(handle)
        self.running.pop(handle.job_id, None)
        (handle.job_dir / PID_NAME).unlink(missing_ok=True)
        result = read_result(handle.job_dir, handle.job_id)
        if result is None:
            self._retire(handle)
            return None
        if reported and handle.process.is_alive():
            self.idle.append(handle)
        return self._complete(handle, result)

    def _requeue_slow(self, handle: WorkerHandle, deadline: float) -> dict:
        """Kill a slow-but-alive attempt and re-pend the job."""
        event = self._settle(handle, kill=True)
        if event is not None:
            return event
        self.slow_requeues[handle.job_id] = (
            self.slow_requeues.get(handle.job_id, 0) + 1
        )
        reason = (
            f"slow, not dead: beating worker overran the learned "
            f"{deadline:.3g}s deadline for kind {handle.kind!r}"
        )
        self.queue.mark_requeued(handle.job_id, reason)
        self.metrics.count("slow_requeues")
        return {
            "event": "slow_requeue",
            "job_id": handle.job_id,
            "deadline_s": deadline,
            "reason": reason,
        }

    def _kill(self, handle: WorkerHandle, why: str) -> dict:
        self.metrics.count("worker_kills")
        return self._reap(handle, killed_because=why)

    def _reap(self, handle: WorkerHandle, killed_because: Optional[str] = None) -> dict:
        """Classify a finished attempt and journal the outcome."""
        event = self._settle(handle, kill=killed_because is not None)
        if event is not None:
            return event
        error = read_error(handle.job_dir)
        if killed_because is not None:
            reason = killed_because
        elif error is not None:
            reason = f"{error.get('error_type')}: {error.get('error')}"
        else:
            code = handle.process.exitcode
            reason = f"worker died without a result (exit code {code})"
        return self._retry_or_quarantine(handle, reason, error)

    def _complete(self, handle: WorkerHandle, result: dict) -> dict:
        """Journal terminal success and learn the attempt's runtime."""
        self.queue.mark_completed(
            handle.job_id,
            result.get("digest"),
            attempt=handle.attempt,
            steps=result.get("steps"),
            resumed_from_step=result.get("resumed_from_step", 0),
        )
        self.record_runtime(
            handle.kind, time.monotonic() - handle.started_mono
        )
        self.slow_requeues.pop(handle.job_id, None)
        self.metrics.count("completed")
        return {"event": "completed", "job_id": handle.job_id}

    def _retry_or_quarantine(
        self, handle: WorkerHandle, reason: str, error: Optional[dict]
    ) -> dict:
        job_id, attempt = handle.job_id, handle.attempt
        if attempt >= self.config.max_attempts:
            self.queue.mark_quarantined(
                job_id,
                f"failed {attempt} attempts; last: {reason}",
                traceback=(error or {}).get("traceback"),
            )
            self.metrics.count("quarantined")
            return {"event": "quarantined", "job_id": job_id, "reason": reason}
        delay = backoff_delay(job_id, attempt, self.config)
        self.queue.mark_failed(job_id, attempt, reason, time.monotonic() + delay)
        self.metrics.count("retries")
        return {
            "event": "retry",
            "job_id": job_id,
            "attempt": attempt,
            "delay_s": delay,
            "reason": reason,
        }

    # -- teardown --------------------------------------------------------

    def kill_all(self) -> None:
        """SIGKILL and collect every worker process, running or freed
        (service shutdown path)."""
        for handle in [*self.running.values(), *self.idle]:
            self._retire(handle)
        self.running.clear()
        self.idle.clear()
