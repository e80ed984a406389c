"""``service_drain``: the ensemble service end to end, two forked workers.

Each block works on a fresh service root:

1. *drain* — 20 small ocean jobs (16x8x3, 8 steps, seeded
   perturbations) are spooled and a real :class:`EnsembleService`
   drains them (``ops_per_s`` = jobs per second of drain);
2. *round trips* — six times: submit one more job, start a new service
   on the same root, ``serve(drain=True)`` (``op_ms_p50`` = one round
   trip).  The journal already holds the drain's records, so the read
   side (replay, start-up) is exercised beside the write side (append).

Model compute is milliseconds per job; journal fsyncs, spool ingest,
worker spawn and reap and status writes dominate.  This replaces the
11-job sample behind ``BENCH_service.json``.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Dict, List, Optional

from perf.harness import Recorder, Workload, remove_tree, scratch_dir

WORKERS = 2
DRAIN_JOBS = 20
ROUND_TRIPS = 6
SMOKE_DRAIN_JOBS = 6
SMOKE_ROUND_TRIPS = 2
JOB_SHAPE = {"nx": 16, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 8}


class ServiceDrain(Workload):
    name = "service_drain"
    op = "drain: one job through a 2-worker service; latency: one submit->serve round trip"
    throughput_kind = "drain"
    latency_kind = "roundtrip"

    def __init__(self, seed: int = 0, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = random.Random(self.seed)
        self.n_drain = SMOKE_DRAIN_JOBS if smoke else DRAIN_JOBS
        self.n_trips = SMOKE_ROUND_TRIPS if smoke else ROUND_TRIPS
        #: per-job (perturb_seed, perturb_amp): distinct members, so
        #: every digest in a drain must differ.
        self.members = [
            (rng.randrange(1 << 30), rng.choice((0.005, 0.01, 0.02)))
            for _ in range(self.n_drain + self.n_trips)
        ]
        self._roots: List = []
        self._summaries: List[dict] = []

    def prepare(self) -> None:
        from repro.service import (
            EnsembleService, JobSpec, ServiceClient, ServiceConfig, SupervisorConfig,
            execute_job,
        )

        self._execute_job = execute_job
        self._service = EnsembleService
        self._client = ServiceClient
        self._spec = JobSpec
        self._config = ServiceConfig(supervisor=SupervisorConfig(max_workers=WORKERS))
        # warm-up: one job through a throw-away service
        root = self._new_root()
        self._client(root).submit(self._job(0))
        self._serve(root)

    def _new_root(self):
        root = scratch_dir("service")
        self._roots.append(root)
        return root

    def _job(self, i: int):
        seed, amp = self.members[i]
        return self._spec(
            kind="ocean", name=f"member-{i:03d}",
            params={**JOB_SHAPE, "perturb_seed": seed, "perturb_amp": amp},
        )

    def _serve(self, root) -> dict:
        summary = self._service(root, self._config).serve(drain=True, max_wall_s=120.0)
        self._summaries.append(summary)
        return summary

    def block(self, rec: Recorder) -> None:
        root = self._new_root()
        client = self._client(root)
        client.submit_many(self._job(i) for i in range(self.n_drain))
        rec.timed(lambda: self._serve(root), kind="drain", ops=self.n_drain)
        for i in range(self.n_drain, self.n_drain + self.n_trips):

            def round_trip(i=i):
                client.submit(self._job(i))
                return self._serve(root)

            rec.timed(round_trip, kind="roundtrip")
        states = client.status()
        wanted = self.n_drain + self.n_trips
        bad = [s for s in states.values() if s["status"] != "completed"]
        if len(states) != wanted or bad:
            rec.fail_ops(
                max(len(bad), abs(wanted - len(states)), 1),
                "every job completed, none quarantined",
                f"{len(states)} of {wanted} jobs known; not completed: {bad}",
            )
        digests = {job_id: s["digest"] for job_id, s in states.items()}
        rec.check(
            "distinct non-empty digest per job",
            all(digests.values()) and len(set(digests.values())) == len(digests),
            str(digests),
        )
        rec.same_every_block("digests", dict(sorted(digests.items())))
        remove_tree(root)

    def layer_metrics(self, rec: Recorder) -> Dict[str, Optional[float]]:
        drains = rec.values("drain", traced=None)
        workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        retries = sum(s["retries"] for s in self._summaries)
        spawned = sum(s["workers_spawned"] for s in self._summaries)
        out: Dict[str, Optional[float]] = {
            "service.worker_peak_rss_mb": workers_kb / 1024.0,
            "service.retries": retries,
            # the warm-up job in prepare() is the +1
            "service.spawns_per_job": spawned / (rec.attempted + 1),
        }
        if drains:
            # a worker slot's seconds per job, against the same job's
            # model compute run inline: the rest is the service
            slot_s = (WORKERS * sum(s["raw_s"] for s in drains)
                      / sum(s["ops"] for s in drains))
            spec = self._job(0)
            self._execute_job(spec)
            t0 = time.perf_counter()
            for _ in range(3):
                self._execute_job(spec)
            compute_s = (time.perf_counter() - t0) / 3
            out["service.overhead_share"] = 1.0 - compute_s / slot_s
        return out

    def close(self) -> None:
        for root in self._roots:
            remove_tree(root)
