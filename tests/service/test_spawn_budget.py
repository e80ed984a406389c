"""Exact fork and journal-record counts of a drain (a `scripts/ci.sh`
stage of its own, beside the DES event and GCM step call budgets).

A worker process runs job after job, so a failure-free drain forks one
process per worker slot however many jobs it holds, and only a failed
attempt — which retires its process — costs another fork.  A regression
to fork-per-attempt fails here by count, not by timing.
"""

from repro.service import (
    JobPriority,
    JobSpec,
    Journal,
    ServiceConfig,
    SupervisorConfig,
    run_jobs,
)
from repro.service.api import JOURNAL_NAME

WORKERS = 2
JOBS = 12
MAX_ATTEMPTS = 3


def drain(root, specs):
    config = ServiceConfig(supervisor=SupervisorConfig(
        max_workers=WORKERS, max_attempts=MAX_ATTEMPTS,
        backoff_base_s=0.0, backoff_cap_s=0.0))
    _, results, summary = run_jobs(root, specs, config, max_wall_s=60.0)
    return results, summary, Journal(root / JOURNAL_NAME).replay()


def clean_jobs(n):
    return [JobSpec(kind="sleep", name=f"job-{i:02d}", params={"sleep_s": 0.03})
            for i in range(n)]


def test_failure_free_drain_forks_one_process_per_slot(tmp_path):
    results, summary, records = drain(tmp_path, clean_jobs(JOBS))
    assert all(results) and summary["completed"] == JOBS
    assert summary["workers_spawned"] == WORKERS
    assert summary["retries"] == 0
    # submit, start, complete
    assert len(records) == 3 * JOBS


def test_each_failed_attempt_costs_one_fork(tmp_path):
    """The poison job goes first and retries at once, so every one of
    its attempts ends while clean jobs are still queued: each retires
    one process and the next clean job forks its replacement."""
    poison = JobSpec(kind="fail", name="poison", priority=JobPriority.HIGH)
    results, summary, _ = drain(tmp_path, [poison, *clean_jobs(JOBS - 1)])
    assert summary["completed"] == JOBS - 1 and summary["quarantined"] == 1
    assert results[0] is None and all(results[1:])
    assert summary["workers_spawned"] == WORKERS + MAX_ATTEMPTS


def test_single_job_round_trip_forks_once(tmp_path):
    _, summary, records = drain(tmp_path, clean_jobs(1))
    assert summary["workers_spawned"] == 1 and len(records) == 3
