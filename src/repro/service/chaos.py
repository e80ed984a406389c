"""Chaos harness: SIGKILL workers *and the service* and prove nothing is lost.

The fault story of :mod:`repro.service` is only worth shipping if it
survives the real failure mode — ``kill -9`` at the worst possible
moment.  The harness:

1. builds a seeded ensemble (mostly small OGCM scenarios, plus flaky /
   poison / wedge members that exercise retry and quarantine);
2. computes the **reference digests** by running every scenario
   undisturbed in-process;
3. starts the service as a *real subprocess* and submits the ensemble
   through the async spool API;
4. on a seeded schedule, SIGKILLs random live workers and periodically
   SIGKILLs the service itself, restarting it against the same
   directory (journal replay is the recovery path under test);
5. after a calm-down fence, lets the survivors drain and then audits
   the journal: every job must end ``completed`` with a digest
   **bit-exact** to its reference, or ``quarantined`` with a recorded
   reason — none lost, none duplicated (duplicate COMPLETE records may
   exist after a torn tail, but must agree on the digest).

Everything is driven by one RNG seed, so a failing chaos run is
replayable.
"""

from __future__ import annotations

import os
import pathlib
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .api import JOBS_DIR, JOURNAL_NAME, ServiceClient
from .jobs import JobPriority, JobSpec, JobStatus
from .journal import Journal
from .queue import JobQueue
from .worker import PID_NAME, execute_job


#: per-tick probability of SIGKILLing one random live worker.
KILL_WORKER_PROB = 0.35
#: seconds between SIGKILLs of the service itself.
SERVICE_KILL_PERIOD_S = 3.0
#: cap on service assassinations (each restart costs an interpreter).
MAX_SERVICE_KILLS = 3
#: fraction of the budget after which all killing stops (the calm
#: window in which survivors must drain).
CALM_AFTER_FRACTION = 0.5
TICK_S = 0.15


@dataclass
class ChaosConfig:
    """Knobs of one chaos campaign (all deterministic under ``seed``)."""

    seed: int = 0
    n_jobs: int = 50
    workers: int = 4
    #: overall wall-clock budget; the audit fails jobs still live past it.
    max_wall_s: float = 120.0
    #: supervisor tuning pushed to the serve subprocess via CLI flags.
    heartbeat_timeout_s: float = 1.0
    deadline_s: float = 20.0
    max_attempts: int = 6


@dataclass
class ChaosReport:
    """Outcome of a campaign; ``ok`` is the acceptance verdict."""

    n_jobs: int = 0
    completed: int = 0
    quarantined: int = 0
    lost: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    divergent: List[str] = field(default_factory=list)
    unreasoned: List[str] = field(default_factory=list)
    worker_kills: int = 0
    service_kills: int = 0
    resumed_jobs: int = 0
    elapsed_s: float = 0.0
    journal_records: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.n_jobs > 0
            and self.completed > 0
            and not self.lost
            and not self.mismatched
            and not self.divergent
            and not self.unreasoned
            and self.completed + self.quarantined == self.n_jobs
        )

    def render(self) -> str:
        """Human-readable verdict block naming any lost/mismatched jobs."""
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos: {verdict} — {self.n_jobs} jobs, "
            f"{self.completed} completed bit-exact, "
            f"{self.quarantined} quarantined, {len(self.lost)} lost",
            f"  kills: {self.worker_kills} workers, "
            f"{self.service_kills} service (journal replayed each restart)",
            f"  checkpoint resumes observed: {self.resumed_jobs}",
            f"  journal: {self.journal_records} records, "
            f"elapsed {self.elapsed_s:.1f}s",
        ]
        if self.mismatched:
            lines.append(f"  DIGEST MISMATCH: {self.mismatched}")
        if self.divergent:
            lines.append(f"  DIVERGENT DUPLICATE COMPLETES: {self.divergent}")
        if self.unreasoned:
            lines.append(f"  QUARANTINED WITHOUT REASON: {self.unreasoned}")
        if self.lost:
            lines.append(f"  LOST: {self.lost}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ensemble construction
# ---------------------------------------------------------------------------


def build_ensemble(n_jobs: int, seed: int) -> List[JobSpec]:
    """A seeded Fig. 11-style mix: OGCM sweep members + pathological jobs."""
    rng = random.Random(seed)
    specs: List[JobSpec] = []
    n_flaky = max(1, n_jobs // 12)
    n_poison = max(1, n_jobs // 20)
    n_wedge = 1 if n_jobs >= 8 else 0
    n_ocean = n_jobs - n_flaky - n_poison - n_wedge
    for i in range(n_ocean):
        specs.append(
            JobSpec(
                kind="ocean",
                name=f"ocean-{i:03d}",
                params={
                    "nx": rng.choice((12, 16)),
                    "ny": 8,
                    "nz": 3,
                    "dt": rng.choice((900.0, 1200.0)),
                    "steps": rng.randint(6, 10),
                    "perturb_seed": i,
                    "perturb_amp": 0.01,
                    "checkpoint_every": 2,
                },
                priority=rng.choice(
                    (JobPriority.HIGH, JobPriority.NORMAL, JobPriority.NORMAL)
                ),
            )
        )
    for i in range(n_flaky):
        specs.append(
            JobSpec(kind="flaky", name=f"flaky-{i}", params={"fails_before": 2})
        )
    for i in range(n_poison):
        specs.append(JobSpec(kind="fail", name=f"poison-{i}"))
    for i in range(n_wedge):
        specs.append(JobSpec(kind="wedge", name=f"wedge-{i}", params={"hang_s": 600.0}))
    rng.shuffle(specs)
    return specs


def expected_outcomes(specs: List[JobSpec]) -> Dict[str, Tuple[str, Optional[str]]]:
    """Reference outcome per job: ("completed", digest) or ("quarantined", None).

    Computed by running each scenario undisturbed in-process — the
    ground truth a chaotic run must reproduce bit-exactly.
    """
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    for spec in specs:
        if spec.kind in ("fail", "wedge"):
            out[spec.job_id] = ("quarantined", None)
            continue
        # flaky succeeds once past its deliberate failures
        attempt = int(spec.params.get("fails_before", 0)) + 1
        result = execute_job(spec, job_dir=None, attempt=attempt)
        out[spec.job_id] = ("completed", result["digest"])
    return out


# ---------------------------------------------------------------------------
# Driving the service under fire
# ---------------------------------------------------------------------------


def _serve_cmd(root: pathlib.Path, cfg: ChaosConfig) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "service",
        "--serve",
        "--dir",
        str(root),
        "--workers",
        str(cfg.workers),
        "--drain",
        "--heartbeat-timeout",
        str(cfg.heartbeat_timeout_s),
        "--deadline",
        str(cfg.deadline_s),
        "--max-attempts",
        str(cfg.max_attempts),
    ]


def _spawn_service(root: pathlib.Path, cfg: ChaosConfig) -> subprocess.Popen:
    import repro

    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        _serve_cmd(root, cfg),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _live_worker_pids(root: pathlib.Path) -> List[int]:
    pids = []
    for pid_file in (root / JOBS_DIR).glob(f"*/{PID_NAME}"):
        try:
            pid = int(pid_file.read_text().strip())
            os.kill(pid, 0)
            pids.append(pid)
        except (OSError, ValueError):
            continue
    return sorted(pids)


def _journal_states(root: pathlib.Path) -> JobQueue:
    """Read-only replay, tolerant of a concurrently-appending service."""
    import warnings

    queue = JobQueue(Journal(root / JOURNAL_NAME))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        queue.replay()
    return queue


def run_chaos(
    root: Union[str, pathlib.Path],
    config: Optional[ChaosConfig] = None,
    echo=None,
) -> ChaosReport:
    """Run one seeded chaos campaign; returns the audited report."""
    cfg = config or ChaosConfig()
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(cfg.seed ^ 0xC4A05)
    say = echo or (lambda *_: None)
    report = ChaosReport()

    specs = build_ensemble(cfg.n_jobs, cfg.seed)
    report.n_jobs = len(specs)
    say(f"chaos: computing {len(specs)} reference outcomes (undisturbed runs)")
    expected = expected_outcomes(specs)

    client = ServiceClient(root)
    # half the ensemble is spooled before the service exists, the rest
    # arrives while it is (and is being killed) — both async paths.
    ids = [spec.job_id for spec in specs]
    split = len(specs) // 2
    client.submit_many(specs[:split])
    late = list(specs[split:])

    t0 = time.monotonic()
    calm_at = t0 + CALM_AFTER_FRACTION * cfg.max_wall_s
    next_service_kill = t0 + SERVICE_KILL_PERIOD_S
    say(f"chaos: seed={cfg.seed}, {cfg.workers} workers, budget {cfg.max_wall_s:.0f}s")
    service = _spawn_service(root, cfg)

    try:
        while True:
            now = time.monotonic()
            if now - t0 > cfg.max_wall_s:
                say("chaos: wall-clock budget exhausted")
                break
            if late and rng.random() < 0.4:
                client.submit(late.pop())
            queue = _journal_states(root)
            seen = set(queue.jobs)
            if set(ids) <= seen and not late and queue.all_terminal():
                if service.poll() is None:
                    # drained service should exit on its own; nudge-wait
                    try:
                        service.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        service.kill()
                break
            chaos_on = now < calm_at
            if service.poll() is not None:
                # service exited (drained early, or we killed it): flush
                # any still-unsubmitted jobs so the restart sees them,
                # then bring the service back up.
                while late:
                    client.submit(late.pop())
                say("chaos: restarting service")
                service = _spawn_service(root, cfg)
            elif (
                chaos_on
                and report.service_kills < MAX_SERVICE_KILLS
                and now >= next_service_kill
            ):
                say(f"chaos: SIGKILL service (pid {service.pid})")
                service.send_signal(signal.SIGKILL)
                service.wait()
                report.service_kills += 1
                next_service_kill = now + SERVICE_KILL_PERIOD_S
                service = _spawn_service(root, cfg)
            if chaos_on and rng.random() < KILL_WORKER_PROB:
                pids = _live_worker_pids(root)
                if pids:
                    victim = rng.choice(pids)
                    try:
                        os.kill(victim, signal.SIGKILL)
                        report.worker_kills += 1
                    except OSError:
                        pass
            time.sleep(TICK_S)
    finally:
        if service.poll() is None:
            service.send_signal(signal.SIGTERM)
            try:
                service.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                service.kill()
                service.wait()

    report.elapsed_s = time.monotonic() - t0
    _audit(root, ids, expected, report)
    return report


def _audit(
    root: pathlib.Path,
    ids: List[str],
    expected: Dict[str, Tuple[str, Optional[str]]],
    report: ChaosReport,
) -> None:
    """Compare the journal's final word against the reference outcomes."""
    journal = Journal(root / JOURNAL_NAME)
    records = journal.replay()
    report.journal_records = len(records)
    queue = JobQueue(journal)
    queue.replay()
    report.divergent = list(queue.divergent_completes)
    resumed = {
        r["job_id"]
        for r in records
        if r.get("type") == "complete" and r.get("resumed_from_step", 0)
    }
    report.resumed_jobs = len(resumed)
    for job_id in ids:
        state = queue.jobs.get(job_id)
        if state is None or not state.terminal:
            report.lost.append(job_id)
            continue
        if state.status is JobStatus.COMPLETED:
            report.completed += 1
            want_status, want_digest = expected[job_id]
            if want_status != "completed" or state.digest != want_digest:
                report.mismatched.append(job_id)
        elif state.status is JobStatus.QUARANTINED:
            report.quarantined += 1
            if not state.reason:
                report.unreasoned.append(job_id)
        else:  # SHED is terminal but chaos never sheds (no LOW overflow)
            report.lost.append(job_id)
