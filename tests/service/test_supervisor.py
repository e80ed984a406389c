"""Supervisor behavior with real forked workers: reap, wedge-kill,
deadline, retry/backoff, quarantine."""

import time

import pytest

from repro.service import (
    JobQueue,
    JobSpec,
    Journal,
    ServiceMetrics,
    Supervisor,
    SupervisorConfig,
    backoff_delay,
)
from repro.service import supervisor as supervisor_module
from repro.service.jobs import JobStatus


def make_supervisor(tmp_path, **cfg_kw):
    journal = Journal(tmp_path / "journal.bin").open()
    queue = JobQueue(journal)
    queue.replay()
    config = SupervisorConfig(
        max_workers=2,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        **cfg_kw,
    )
    return Supervisor(queue, tmp_path / "jobs", config, ServiceMetrics()), queue


def drive(supervisor, queue, job_id, timeout_s=30.0):
    """Supervision passes in the service's order (poll, schedule,
    dismiss) until the job is terminal; returns the final state."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        supervisor.poll()
        state = queue.jobs[job_id]
        if state.status is JobStatus.PENDING and supervisor.free_slots():
            ready = queue.next_ready()
            if ready is not None and ready.job_id == job_id:
                supervisor.spawn(ready)
        supervisor.dismiss_idle()
        if state.terminal:
            return state
        supervisor.wait(0.02)
    raise AssertionError(f"{job_id} not terminal within {timeout_s}s")


class TestBackoff:
    def test_deterministic_and_capped(self):
        cfg = SupervisorConfig(backoff_base_s=0.1, backoff_cap_s=2.0)
        jitter = 1.0 + supervisor_module.BACKOFF_JITTER
        d1 = backoff_delay("job-x", 3, cfg)
        assert d1 == backoff_delay("job-x", 3, cfg)  # reproducible
        assert d1 != backoff_delay("job-y", 3, cfg)  # jitter spreads jobs
        assert 0.4 <= d1 <= 0.4 * jitter
        # far past the cap: bounded by cap * (1 + jitter)
        assert backoff_delay("job-x", 30, cfg) <= 2.0 * jitter

    def test_grows_exponentially_until_cap(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "BACKOFF_JITTER", 0.0)
        cfg = SupervisorConfig(backoff_base_s=0.1, backoff_cap_s=10.0)
        delays = [backoff_delay("j", a, cfg) for a in (1, 2, 3, 4)]
        assert delays == [pytest.approx(0.1 * 2 ** i) for i in range(4)]


class TestLifecycles:
    def test_clean_job_completes(self, tmp_path):
        supervisor, queue = make_supervisor(tmp_path)
        queue.submit(JobSpec(kind="sleep", name="ok", params={"sleep_s": 0.05}))
        state = drive(supervisor, queue, "ok")
        assert state.status is JobStatus.COMPLETED
        assert state.digest.startswith("sleep:")
        assert state.attempts == 1

    def test_flaky_job_retries_then_succeeds(self, tmp_path):
        supervisor, queue = make_supervisor(tmp_path, max_attempts=5)
        queue.submit(
            JobSpec(kind="flaky", name="fl", params={"fails_before": 2})
        )
        state = drive(supervisor, queue, "fl")
        assert state.status is JobStatus.COMPLETED
        assert state.attempts == 3  # two deliberate failures, then success
        assert supervisor.metrics.get("retries") == 2

    def test_poison_job_quarantined_with_traceback(self, tmp_path):
        supervisor, queue = make_supervisor(tmp_path, max_attempts=3)
        queue.submit(JobSpec(kind="fail", name="px"))
        state = drive(supervisor, queue, "px")
        assert state.status is JobStatus.QUARANTINED
        assert "failed 3 attempts" in state.reason
        assert "ValueError" in state.reason
        assert "Traceback" in state.traceback  # captured from error.json
        assert supervisor.metrics.get("quarantined") == 1

    def test_wedged_worker_killed_on_stale_heartbeat(self, tmp_path):
        supervisor, queue = make_supervisor(
            tmp_path, heartbeat_timeout_s=0.4, deadline_s=60.0, max_attempts=1
        )
        queue.submit(JobSpec(kind="wedge", name="wd", params={"hang_s": 60.0}))
        t0 = time.monotonic()
        state = drive(supervisor, queue, "wd", timeout_s=15.0)
        assert state.status is JobStatus.QUARANTINED
        assert "wedged (heartbeat stale)" in state.reason
        assert time.monotonic() - t0 < 10.0  # killed by liveness, not deadline
        assert supervisor.metrics.get("worker_kills") == 1

    def test_deadline_kills_beating_but_overlong_worker(self, tmp_path):
        supervisor, queue = make_supervisor(
            tmp_path, heartbeat_timeout_s=5.0, deadline_s=0.3, max_attempts=1
        )
        # beats every 20 ms, so only the deadline can reap it
        queue.submit(
            JobSpec(kind="sleep", name="slow", params={"sleep_s": 30.0})
        )
        state = drive(supervisor, queue, "slow", timeout_s=15.0)
        assert state.status is JobStatus.QUARANTINED
        assert "deadline exceeded" in state.reason

    def test_kill_all_clears_pool(self, tmp_path):
        supervisor, queue = make_supervisor(tmp_path)
        queue.submit(JobSpec(kind="sleep", name="s1", params={"sleep_s": 30.0}))
        supervisor.spawn(queue.next_ready())
        assert len(supervisor.running) == 1
        supervisor.kill_all()
        assert supervisor.running == {}
