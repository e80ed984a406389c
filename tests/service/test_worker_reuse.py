"""Worker processes outlive one job — but never a failure, and never
their service.

A process runs attempt after attempt only while each is clean; after a
raise, an outside SIGKILL, a wedge kill or a slow-requeue it is gone and
every later attempt runs under another pid.  A worker told to leave
leaves at once (a message: closing the pipe would deliver no EOF while
a forked sibling lives), and a worker whose service was SIGKILLed
notices by ``os.getppid()`` and exits by itself.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.service import (
    ChaosConfig,
    EnsembleService,
    JobPriority,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    SupervisorConfig,
    execute_job,
    run_jobs,
)
from repro.service import supervisor as supervisor_module
from repro.service.api import JOBS_DIR
from repro.service.chaos import _spawn_service
from repro.service.worker import PID_NAME, RESULT_NAME, read_result

OCEAN = {"nx": 12, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 6,
         "perturb_amp": 0.01, "checkpoint_every": 2}


def gone(pid):
    """No such process any more (a zombie nobody collected yet counts)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def wait_until(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"not within {timeout_s}s: {what}"
        time.sleep(0.01)


def sleep_job(name, sleep_s=0.02, **kw):
    return JobSpec(kind="sleep", name=name, params={"sleep_s": sleep_s}, **kw)


def one_worker_service(root, specs, **supervisor_kw):
    ServiceClient(root).submit_many(specs)
    config = ServiceConfig(supervisor=SupervisorConfig(
        max_workers=1, backoff_base_s=0.01, backoff_cap_s=0.02, **supervisor_kw))
    return EnsembleService(root, config)


def drive(service, on_attempt=None, timeout_s=30.0):
    """Step the service until everything is terminal.  Returns the
    ``(job_id, attempt, pid)`` sightings in order and the events; checks
    on every pass that ``worker.pid`` names the process running the job."""
    sightings, events = [], []
    deadline = time.monotonic() + timeout_s
    try:
        while not (service.queue.jobs and service.queue.all_terminal()):
            assert time.monotonic() < deadline, service.queue.counts()
            events += service.step()
            for handle in service.supervisor.running.values():
                pid = int((handle.job_dir / PID_NAME).read_text())
                assert pid == handle.process.pid
                seen = (handle.job_id, handle.attempt, pid)
                if seen not in sightings:
                    sightings.append(seen)
                    if on_attempt is not None:
                        on_attempt(*seen)
            service.supervisor.wait(0.01)
        assert not service.supervisor.idle  # freed workers never outlive a pass
    finally:
        service.shutdown()
    return sightings, events


def assert_retired(sightings, failed):
    """Each ``(job_id, attempt)`` in ``failed`` ran under a pid that is
    gone and that no later attempt of any job ran under."""
    assert failed, "the scenario produced no failed attempt"
    for job_id, attempt in failed:
        index, pid = next((i, s[2]) for i, s in enumerate(sightings)
                          if s[:2] == (job_id, attempt))
        assert gone(pid)
        assert all(s[2] != pid for s in sightings[index + 1:]), sightings


class TestFailedProcessRunsNothingFurther:
    def test_reuse_happens_and_a_raise_ends_it(self, tmp_path):
        service = one_worker_service(tmp_path, [
            sleep_job("1-ok"),
            JobSpec(kind="flaky", name="2-flaky", params={"fails_before": 1}),
            sleep_job("3-ok", 0.1),  # outlasts the flaky job's backoff fence
        ])
        sightings, _ = drive(service)
        pid = {s[:2]: s[2] for s in sightings}
        assert pid[("2-flaky", 1)] == pid[("1-ok", 1)]  # the clean worker was reused
        assert_retired(sightings, [("2-flaky", 1)])
        assert pid[("2-flaky", 2)] == pid[("3-ok", 1)]  # ... and so was its successor
        assert service.metrics.get("workers_spawned") == 2

    def test_sigkill_by_pid_file(self, tmp_path):
        service = one_worker_service(
            tmp_path, [sleep_job("1-ok"), sleep_job("2-victim", 0.3), sleep_job("3-ok")])

        def chaos(job_id, attempt, pid):
            if (job_id, attempt) == ("2-victim", 1):
                os.kill(pid, signal.SIGKILL)  # pid == worker.pid, checked above

        sightings, events = drive(service, chaos)
        assert_retired(sightings, [("2-victim", 1)])
        assert [e["event"] for e in events].count("retry") == 1
        assert service.queue.counts()["completed"] == 3

    def test_wedge_kill(self, tmp_path):
        service = one_worker_service(
            tmp_path,
            [sleep_job("1-ok"),
             JobSpec(kind="wedge", name="2-wedge", params={"hang_s": 60.0}),
             sleep_job("3-ok")],
            heartbeat_timeout_s=0.3, max_attempts=2,
        )
        sightings, _ = drive(service)
        assert_retired(sightings, [("2-wedge", 1), ("2-wedge", 2)])
        assert service.metrics.get("worker_kills") == 2
        assert service.queue.counts() == {
            "pending": 0, "running": 0, "completed": 2, "quarantined": 1, "shed": 0}

    def test_slow_requeue(self, tmp_path, monkeypatch):
        for name, value in [("DEADLINE_MIN_SAMPLES", 2), ("DEADLINE_MARGIN", 1.0),
                            ("ADAPTIVE_DEADLINE_FLOOR_S", 0.3), ("MAX_SLOW_REQUEUES", 1)]:
            monkeypatch.setattr(supervisor_module, name, value)
        service = one_worker_service(
            tmp_path,
            [sleep_job("1-quick", 0.0), sleep_job("2-quick", 0.0),
             sleep_job("3-slow", 1.0), sleep_job("4-quick", 0.0)],
            max_attempts=1,
        )
        sightings, events = drive(service)
        kinds = [e["event"] for e in events]
        assert kinds.count("slow_requeue") == 1 and kinds.count("quarantined") == 1
        # requeued without burning an attempt: two sightings of attempt 1
        slow_pids = [s[2] for s in sightings if s[0] == "3-slow"]
        assert len(slow_pids) == 2 and all(gone(p) for p in slow_pids)
        assert {s[2] for s in sightings if s[0] == "4-quick"}.isdisjoint(slow_pids)


class TestDismissal:
    def test_unneeded_worker_leaves_at_once_while_a_sibling_runs(self, tmp_path):
        """The sibling, forked second, holds a copy of the service's end
        of the first worker's pipe: only a message can dismiss it."""
        ServiceClient(tmp_path).submit_many([
            sleep_job("1-short", 0.05, priority=JobPriority.HIGH),
            sleep_job("2-long", 1.5),
        ])
        service = EnsembleService(tmp_path, ServiceConfig(
            supervisor=SupervisorConfig(max_workers=2)))
        try:
            service.step()
            short = service.supervisor.running["1-short"].process
            wait_until(lambda: read_result(tmp_path / JOBS_DIR / "1-short", "1-short"),
                       5.0, "short job's result")
            t0 = time.monotonic()
            service.step()
            assert time.monotonic() - t0 < 1.0
            assert not short.is_alive() and short.exitcode == 0
            assert set(service.supervisor.running) == {"2-long"}
        finally:
            service.shutdown()


class TestSerialJobsMatchInline:
    def test_digests_of_jobs_run_back_to_back_in_one_worker(self, tmp_path):
        specs = [
            JobSpec(kind="ocean", name=f"m{i}",
                    params=dict(OCEAN, perturb_seed=i, nx=(12, 16)[i % 2]))
            for i in range(4)
        ]
        _, results, summary = run_jobs(
            tmp_path, specs,
            ServiceConfig(supervisor=SupervisorConfig(max_workers=1)),
            max_wall_s=60.0,
        )
        assert summary["workers_spawned"] == 1
        assert [r["digest"] for r in results] == [
            execute_job(spec)["digest"] for spec in specs
        ]

    def test_digests_do_not_depend_on_the_modules_earlier_jobs_loaded(self, tmp_path):
        """Package exports load on first use, so what a worker has
        imported depends on the jobs it ran before.  The service runs in
        a fresh interpreter that imported only ``repro.service`` (this
        one has imported everything); its one worker first runs a
        DES-tier ocean job and a DES-tier fault-campaign candidate,
        which load the packet-level stack, then an analytic ocean job.
        Each digest must equal the one computed inline here."""
        specs = [
            JobSpec(kind="ocean", name="1-des", priority=JobPriority.HIGH,
                    params=dict(OCEAN, px=2, backend="des")),
            JobSpec(kind="campaign", name="2-campaign", priority=JobPriority.HIGH,
                    params={"kind": "stall", "tier": "des", "n_ranks": 4,
                            "magnitude": 4.0}),
            JobSpec(kind="ocean", name="3-analytic", params=dict(OCEAN, perturb_seed=5)),
        ]
        code = textwrap.dedent("""
            import json, pathlib, sys
            from repro.service import JobSpec, ServiceConfig, SupervisorConfig, run_jobs
            specs = [JobSpec.from_dict(d) for d in json.loads(sys.argv[2])]
            _, results, summary = run_jobs(
                pathlib.Path(sys.argv[1]), specs,
                ServiceConfig(supervisor=SupervisorConfig(max_workers=1)), max_wall_s=120.0)
            print(json.dumps([summary["workers_spawned"], [r["digest"] for r in results]]))
        """)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path),
             json.dumps([spec.to_dict() for spec in specs])],
            capture_output=True, text=True, timeout=180, check=True)
        spawned, digests = json.loads(out.stdout)
        assert spawned == 1
        assert digests == [execute_job(spec)["digest"] for spec in specs]


class TestNoWorkerOutlivesItsService:
    @pytest.mark.parametrize("freeze_first", [False, True],
                             ids=["killed-mid-job", "killed-while-a-worker-waits"])
    def test_sigkilled_service_leaves_no_orphan(self, tmp_path, freeze_first):
        """``short``'s worker is forked first, so ``long``'s holds the
        service's end of its pipe: when the service dies, ``short``'s
        worker sees no EOF for as long as ``long`` runs."""
        oceans = [JobSpec(kind="ocean", name=f"m{i}",
                          params=dict(OCEAN, perturb_seed=i)) for i in range(3)]
        client = ServiceClient(tmp_path)
        client.submit_many([
            sleep_job("1-short", 0.4, priority=JobPriority.HIGH),
            sleep_job("2-long", 1.2, priority=JobPriority.HIGH),
            *oceans,
        ])
        jobs = tmp_path / JOBS_DIR
        service = _spawn_service(tmp_path, ChaosConfig(workers=2))
        try:
            wait_until(lambda: (jobs / "1-short" / PID_NAME).exists()
                       and (jobs / "2-long" / PID_NAME).exists(), 20.0, "two workers")
            short_pid = int((jobs / "1-short" / PID_NAME).read_text())
            long_pid = int((jobs / "2-long" / PID_NAME).read_text())
            if freeze_first:
                # the frozen service answers nothing: the worker reports
                # and is waiting for its next message when the service dies
                service.send_signal(signal.SIGSTOP)
                wait_until((jobs / "1-short" / RESULT_NAME).exists, 5.0, "short's result")
                time.sleep(0.05)
                assert not gone(short_pid)
        finally:
            service.kill()
            service.wait()
        wait_until(lambda: gone(short_pid), 2.0, "short's worker gone")
        assert freeze_first or not gone(long_pid)  # the sibling was still mid-job
        wait_until(lambda: gone(long_pid), 1.2 + 2.0, "long's worker gone")

        restarted = EnsembleService(tmp_path)
        found = restarted.startup()
        assert found["completions_adopted"] == 2  # both workers finished their job
        restarted.serve(drain=True, max_wall_s=60.0)
        states = client.status()
        assert all(s["status"] == "completed" for s in states.values()) and len(states) == 5
        for spec in oceans:
            assert states[spec.job_id]["digest"] == execute_job(spec)["digest"]
