"""Worker-side job execution (runs in a forked worker process).

A worker process (:func:`worker_loop`) runs job attempts one after
another, for as long as each is clean and the supervisor has a next one
for it, so what a job imports is imported once per process and not once
per ~20 ms job: for an analytic-tier ocean job numpy and 37 ``repro.*``
modules (package exports load on first use, so the DES stack is not
among them).  An attempt that raises
ends the process.  Serial jobs share an address space and warm module
caches, and nothing a job computes may depend on that; every attempt
leaves its whole story on disk, so the supervisor can reconstruct what
happened even if either side is SIGKILL'd:

* ``heartbeat`` — created when the attempt starts, its mtime touched
  between model steps; the supervisor declares a worker wedged when it
  goes stale past the liveness timeout (the beat comes from the *work
  loop*, not a side thread, so a worker stuck in compute genuinely
  reads as wedged);
* ``ckpt/`` — a :class:`~repro.recover.CoordinatedCheckpointStore` of
  CRC'd shards written every ``checkpoint_every`` steps; a killed
  attempt resumes from the latest committed shard set instead of
  restarting from step 0;
* ``result.json`` — written atomically on success
  (:func:`repro.durable.write_json_atomic`), with the bit-exact state
  digest; its presence *is* the completion signal,
  so a completion can be adopted after a service crash;
* ``error.json`` — the captured traceback of a failed attempt (the
  evidence a quarantine records).

Determinism contract: for every kind, the result digest depends only on
the :class:`~repro.service.jobs.JobSpec` — never on the attempt number,
resume point, timing or what the process ran before — except ``flaky``,
which *deliberately* fails its first ``fails_before`` attempts to
exercise the retry path.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import pathlib
import time
import traceback
from typing import Callable, Optional

from repro.durable import write_json_atomic

from .jobs import JobSpec, model_digest

HEARTBEAT_NAME = "heartbeat"
RESULT_NAME = "result.json"
ERROR_NAME = "error.json"
PID_NAME = "worker.pid"
CKPT_DIR_NAME = "ckpt"

#: how often a worker waiting for its next attempt checks that the
#: service is still its parent.
ORPHAN_CHECK_S = 0.25


def _spec_digest(spec: JobSpec) -> str:
    import hashlib

    canon = json.dumps({"kind": spec.kind, "params": spec.params}, sort_keys=True)
    return hashlib.sha1(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Job kinds
# ---------------------------------------------------------------------------


def _run_ocean(
    spec: JobSpec, job_dir: Optional[pathlib.Path], beat: Callable[[], None]
) -> dict:
    """A small OGCM scenario: the service's real unit of work.

    Parameters (all optional): ``nx ny nz px py dt steps`` for the
    configuration, ``backend`` for the communication fidelity tier
    ("des" / "analytic" / "hybrid" — the state digest is the same on
    every tier, only virtual phase times differ),
    ``perturb_seed``/``perturb_amp`` for a deterministic
    initial-condition perturbation (ensemble members), and
    ``checkpoint_every`` steps between coordinated shard checkpoints.
    """
    import numpy as np

    from repro.gcm.ocean import ocean_model
    from repro.recover import CoordinatedCheckpointStore

    p = spec.params
    steps = int(p.get("steps", 8))
    model = ocean_model(
        nx=int(p.get("nx", 16)),
        ny=int(p.get("ny", 8)),
        nz=int(p.get("nz", 3)),
        px=int(p.get("px", 1)),
        py=int(p.get("py", 1)),
        dt=float(p.get("dt", 1200.0)),
        backend=p.get("backend"),
    )
    amp = float(p.get("perturb_amp", 0.0))
    if amp:
        rng = np.random.default_rng(int(p.get("perturb_seed", 0)))
        theta = model.state.to_global("theta")
        theta = theta + amp * rng.standard_normal(theta.shape)
        model.initialize(theta=theta, tracer=model.state.to_global("tracer"))
    beat()

    store = None
    resumed_from = 0
    ckpt_every = int(p.get("checkpoint_every", 4))
    if job_dir is not None and ckpt_every > 0:
        store = CoordinatedCheckpointStore(job_dir / CKPT_DIR_NAME)
        latest = store.latest_good()
        if latest is not None:
            store.restore({"ocn": model}, latest)
            resumed_from = model.state.step_count
    while model.state.step_count < steps:
        model.step()
        beat()
        done = model.state.step_count
        if store is not None and done < steps and done % ckpt_every == 0:
            store.checkpoint({"ocn": model}, window=done)
            beat()
    return {
        "digest": model_digest(model),
        "steps": model.state.step_count,
        "resumed_from_step": resumed_from,
    }


def _run_sweep(
    spec: JobSpec, job_dir: Optional[pathlib.Path], beat: Callable[[], None]
) -> dict:
    """One Fig. 11-style interconnect sweep point (or a whole curve).

    Parameters (all optional): ``n_values`` — processor counts to
    evaluate (default the full 16..4096 curve), ``backend`` — the
    fidelity tier quoting the costs (default ``"analytic"``; the DES
    tier at N=4096 is exactly the experiment this job kind exists to
    avoid), ``tile`` — per-processor ``[nx, ny]``, ``nz`` — levels.
    The report holds quoted times and Pfpp values only, so retries
    reproduce the digest bit-exactly.
    """
    from repro.backend import large_sweep

    p = spec.params
    report = large_sweep(
        n_values=tuple(int(n) for n in p.get("n_values", (16, 64, 256, 1024, 4096))),
        backend=p.get("backend", "analytic"),
        tile=tuple(p.get("tile", (32, 16))),
        nz=int(p.get("nz", 10)),
    )
    beat()
    import hashlib

    canon = json.dumps(report["rows"], sort_keys=True)
    return {
        "digest": "sweep:" + hashlib.sha1(canon.encode()).hexdigest()[:16],
        "steps": len(report["rows"]),
        "sweep": report,
    }


def _run_sleep(
    spec: JobSpec, job_dir: Optional[pathlib.Path], beat: Callable[[], None]
) -> dict:
    """Cheap synthetic scenario: sleep in heartbeat-sized slices."""
    total = float(spec.params.get("sleep_s", 0.05))
    slice_s = float(spec.params.get("beat_every_s", 0.02))
    deadline = time.monotonic() + total
    while time.monotonic() < deadline:
        time.sleep(min(slice_s, max(deadline - time.monotonic(), 0.0)))
        beat()
    return {"digest": "sleep:" + _spec_digest(spec), "steps": 0}


def _run_flaky(
    spec: JobSpec, job_dir: Optional[pathlib.Path], beat: Callable[[], None], attempt: int
) -> dict:
    """Fails its first ``fails_before`` attempts, then succeeds."""
    beat()
    if attempt <= int(spec.params.get("fails_before", 2)):
        raise RuntimeError(
            f"flaky job {spec.job_id}: deliberate failure on attempt {attempt}"
        )
    return {"digest": "flaky:" + _spec_digest(spec), "steps": 0}


def _run_fail(spec: JobSpec) -> dict:
    """Deterministic poison: fails every attempt (quarantine fodder)."""
    raise ValueError(f"poison job {spec.job_id}: fails deterministically")


def _run_wedge(spec: JobSpec) -> dict:
    """Hangs without heartbeats until the supervisor kills it."""
    time.sleep(float(spec.params.get("hang_s", 3600.0)))
    return {"digest": "wedge:" + _spec_digest(spec), "steps": 0}


#: Candidate kinds: the entry point ``fn(params, beat=)`` lives with its
#: subsystem, is deterministic in ``params`` and returns its own
#: ``digest`` (the degraded run's field digest / the CRC of the gate
#: report) — so retry and chaos guard a candidate's bit-exactness for
#: free, and in-process and service evaluation are mutually checkable.
_CANDIDATES = {
    "campaign": ("repro.faults.campaign", "run_scenario"),
    "precision": ("repro.precision.search", "run_candidate"),
}


def _run_candidate(
    spec: JobSpec, job_dir: Optional[pathlib.Path], beat: Callable[[], None]
) -> dict:
    """One fault-campaign scenario or one mixed-precision gate run."""
    module, entry = _CANDIDATES[spec.kind]
    beat()
    return getattr(importlib.import_module(module), entry)(dict(spec.params), beat=beat)


_RUNNERS = {
    "ocean": _run_ocean, "sweep": _run_sweep, "sleep": _run_sleep,
    "campaign": _run_candidate, "precision": _run_candidate,
}


def execute_job(
    spec: JobSpec,
    job_dir: Optional[pathlib.Path] = None,
    attempt: int = 1,
) -> dict:
    """Run one job attempt; returns the result payload or raises.

    With ``job_dir=None`` the job runs undisturbed in-process — no
    heartbeats, no checkpoints — which is how the chaos harness computes
    the reference digests a chaotic run must reproduce bit-exactly.
    """

    heartbeat = None if job_dir is None else job_dir / HEARTBEAT_NAME
    if heartbeat is not None:
        heartbeat.touch()

    def beat() -> None:
        if heartbeat is not None:
            os.utime(heartbeat)

    if spec.kind == "flaky":
        result = _run_flaky(spec, job_dir, beat, attempt)
    elif spec.kind == "fail":
        result = _run_fail(spec)
    elif spec.kind == "wedge":
        result = _run_wedge(spec)
    else:  # JobSpec validated the kind
        result = _RUNNERS[spec.kind](spec, job_dir, beat)
    result.update({"job_id": spec.job_id, "kind": spec.kind, "attempt": attempt})
    return result


def run_attempt(spec_dict: dict, job_dir: str, attempt: int) -> None:
    """One job attempt: leaves ``result.json``, or ``error.json`` with
    the traceback (so a quarantine can record *why* the job keeps dying)
    and ends the process with exit code 1."""
    spec = JobSpec.from_dict(spec_dict)
    directory = pathlib.Path(job_dir)
    try:
        result = execute_job(spec, directory, attempt)
    except BaseException as exc:  # captured for the quarantine record
        write_json_atomic(
            directory / ERROR_NAME,
            {
                "job_id": spec.job_id,
                "attempt": attempt,
                "error_type": type(exc).__name__,
                "error": str(exc),
                "traceback": traceback.format_exc(),
            },
        )
        raise SystemExit(1) from None
    write_json_atomic(directory / RESULT_NAME, result)


def worker_loop(conn, attempt_args: Optional[tuple]) -> None:
    """Entry point of a worker process: run attempts until dismissed.

    After each clean attempt, report on ``conn`` and wait for the next
    ``(spec_dict, job_dir, attempt)`` or ``None``.  The pipe cannot say
    that the service died (forked siblings hold copies of its end, so
    EOF never arrives); the parent pid can.
    """
    service_pid = multiprocessing.parent_process().pid
    while attempt_args is not None:
        run_attempt(*attempt_args)
        try:
            conn.send(True)
            while not conn.poll(ORPHAN_CHECK_S):
                if os.getppid() != service_pid:
                    return
            attempt_args = conn.recv()
        except (EOFError, OSError):
            return  # nobody holds the other end any more


def read_result(job_dir: pathlib.Path, job_id: str) -> Optional[dict]:
    """The job's result payload, if a valid one exists (else None)."""
    path = pathlib.Path(job_dir) / RESULT_NAME
    try:
        result = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if result.get("job_id") != job_id or "digest" not in result:
        return None
    return result


def read_error(job_dir: pathlib.Path) -> Optional[dict]:
    """The last attempt's captured failure, if one was written."""
    path = pathlib.Path(job_dir) / ERROR_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
