"""End-to-end service behavior: spool ingest, drain, startup recovery,
checkpoint resume, status schema."""

import json

from repro.obs.schema import SERVICE_SUMMARY_SCHEMA, validate
from repro.service import (
    EnsembleService,
    JobSpec,
    Journal,
    JobQueue,
    ServiceClient,
    ServiceConfig,
    SupervisorConfig,
    execute_job,
    run_batch,
    run_jobs,
)
from repro.service.api import JOURNAL_NAME
from repro.service.jobs import JobStatus
from repro.service.worker import RESULT_NAME, write_json_atomic


def fast_config(**kw):
    return ServiceConfig(
        supervisor=SupervisorConfig(
            max_workers=2, backoff_base_s=0.01, backoff_cap_s=0.05, **kw
        )
    )


OCEAN_PARAMS = {
    "nx": 12, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 6,
    "perturb_seed": 3, "perturb_amp": 0.01, "checkpoint_every": 2,
}


class TestDrain:
    def test_spooled_jobs_run_to_completion(self, tmp_path):
        client = ServiceClient(tmp_path)
        ids = client.submit_many(
            [
                JobSpec(kind="sleep", name=f"s{i}", params={"sleep_s": 0.02})
                for i in range(5)
            ]
        )
        service = EnsembleService(tmp_path, fast_config())
        service.startup()
        summary = service.serve(drain=True, max_wall_s=60.0)
        assert summary["completed"] == 5
        assert not list(client.spool.glob("*.json"))  # spool fully ingested
        states = client.status()
        assert all(states[i]["status"] == "completed" for i in ids)

    def test_submission_needs_no_running_service(self, tmp_path):
        client = ServiceClient(tmp_path)
        job_id = client.submit(JobSpec(kind="sleep", name="solo", params={}))
        assert (client.spool / f"{job_id}.json").exists()
        assert client.status() == {}  # no journal yet, no exception

    def test_unreadable_spool_file_is_rejected_not_fatal(self, tmp_path):
        client = ServiceClient(tmp_path)
        client.submit(JobSpec(kind="sleep", name="good", params={}))
        (client.spool / "garbage.json").write_text("{nope")
        service = EnsembleService(tmp_path, fast_config())
        service.startup()
        summary = service.serve(drain=True, max_wall_s=30.0)
        assert summary["completed"] == 1
        assert (client.spool / "garbage.rejected").exists()


class TestRunJobs:
    def test_results_in_submission_order_with_none_for_no_result(self, tmp_path):
        specs = [
            JobSpec(kind="sleep", name="a", params={"sleep_s": 0.05}),
            JobSpec(kind="fail", name="poison"),
            JobSpec(kind="sleep", name="b", params={"sleep_s": 0.0}),
        ]
        ids, results, summary = run_jobs(
            tmp_path, specs, fast_config(max_attempts=1), max_wall_s=60.0
        )
        assert ids == [spec.job_id for spec in specs]
        assert [r and r["job_id"] for r in results] == [ids[0], None, ids[2]]
        assert summary["completed"] == 2 and summary["quarantined"] == 1


class TestRunBatch:
    """One loop runs candidates as jobs: in this process without a
    root, through a drained service with one — same results, in order."""

    PARAMS = [dict(OCEAN_PARAMS, perturb_seed=seed) for seed in (1, 2, 3)]

    def test_in_process_and_service_agree(self, tmp_path):
        inline = run_batch("ocean", self.PARAMS)
        served = run_batch("ocean", self.PARAMS, tmp_path, max_workers=2)
        assert inline == served
        assert len({r["digest"] for r in inline}) == 3
        assert [r["job_id"] for r in inline] == [
            JobSpec("ocean", p).job_id for p in self.PARAMS
        ]
        assert ServiceClient(tmp_path).status().keys() == {r["job_id"] for r in inline}

    def test_in_process_is_execute_job(self):
        (result,) = run_batch("ocean", self.PARAMS[:1])
        assert result == execute_job(JobSpec("ocean", self.PARAMS[0]))


class TestStartupRecovery:
    def test_running_jobs_requeued_without_burning_attempt(self, tmp_path):
        journal = Journal(tmp_path / JOURNAL_NAME).open()
        queue = JobQueue(journal)
        queue.replay()
        queue.submit(JobSpec(kind="sleep", name="zombie", params={}))
        queue.mark_started("zombie", 1)  # ...and the service dies here
        journal.close()

        service = EnsembleService(tmp_path, fast_config())
        found = service.startup()
        assert found["requeued"] == 1
        state = service.queue.jobs["zombie"]
        assert state.status is JobStatus.PENDING
        assert state.attempts == 1  # restart did not count as a failure
        assert service.metrics.restarts == 1
        service.shutdown()

    def test_orphan_result_adopted_as_completion(self, tmp_path):
        journal = Journal(tmp_path / JOURNAL_NAME).open()
        queue = JobQueue(journal)
        queue.replay()
        queue.submit(JobSpec(kind="sleep", name="done-but-torn", params={}))
        queue.mark_started("done-but-torn", 1)
        journal.close()
        # the worker finished and wrote result.json, but the COMPLETE
        # record was lost with the killed service
        job_dir = tmp_path / "jobs" / "done-but-torn"
        job_dir.mkdir(parents=True)
        write_json_atomic(
            job_dir / RESULT_NAME,
            {"job_id": "done-but-torn", "digest": "adopt-me", "attempt": 1},
        )
        service = EnsembleService(tmp_path, fast_config())
        found = service.startup()
        assert found["completions_adopted"] == 1
        state = service.queue.jobs["done-but-torn"]
        assert state.status is JobStatus.COMPLETED
        assert state.digest == "adopt-me"
        service.shutdown()

    def test_orphan_pid_files_cleared(self, tmp_path):
        job_dir = tmp_path / "jobs" / "ghost"
        job_dir.mkdir(parents=True)
        (job_dir / "worker.pid").write_text("999999999")  # long dead
        service = EnsembleService(tmp_path, fast_config())
        service.startup()
        assert not (job_dir / "worker.pid").exists()
        service.shutdown()


class TestBitExactness:
    def test_ocean_digest_independent_of_execution_path(self, tmp_path):
        spec = JobSpec(kind="ocean", name="m0", params=OCEAN_PARAMS)
        reference = execute_job(spec, job_dir=None)  # undisturbed, no ckpt
        (tmp_path / "wk").mkdir()
        via_worker = execute_job(spec, job_dir=tmp_path / "wk")
        assert via_worker["digest"] == reference["digest"]

    def test_resume_from_checkpoint_is_bit_exact(self, tmp_path):
        params = dict(OCEAN_PARAMS, steps=8)
        reference = execute_job(
            JobSpec(kind="ocean", name="m1", params=params), job_dir=None
        )
        # first attempt "dies" after 4 steps, leaving a committed shard
        # set at step 2 and step 4... simulated by a shorter run that
        # checkpoints on the same schedule into the same job_dir
        job_dir = tmp_path / "job"
        job_dir.mkdir()
        half = execute_job(
            JobSpec(kind="ocean", name="m1", params=dict(params, steps=5)),
            job_dir=job_dir,
        )
        assert half["steps"] == 5  # checkpoints committed at steps 2 and 4
        retry = execute_job(
            JobSpec(kind="ocean", name="m1", params=params), job_dir=job_dir
        )
        assert retry["resumed_from_step"] == 4
        assert retry["steps"] == 8
        assert retry["digest"] == reference["digest"]


class TestStatusRecord:
    def test_status_json_validates_against_schema(self, tmp_path):
        client = ServiceClient(tmp_path)
        client.submit(JobSpec(kind="sleep", name="s", params={}))
        service = EnsembleService(tmp_path, fast_config())
        service.startup()
        service.serve(drain=True, max_wall_s=30.0)
        record = json.loads((tmp_path / "status.json").read_text())
        assert validate(record, SERVICE_SUMMARY_SCHEMA) == []
        assert record["completed"] == 1

    def test_summary_rejects_malformed_record(self):
        assert validate({"kind": "service_summary"}, SERVICE_SUMMARY_SCHEMA) != []
