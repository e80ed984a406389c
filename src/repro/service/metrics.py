"""Service observability: counters, throughput, and the status record.

The service's health is surfaced the same way the rest of the repo's
telemetry is (:mod:`repro.obs`): as a schema-validated, machine-readable
record.  :meth:`ServiceMetrics.summary` builds a ``service_summary``
object (queue depth, running workers, retries, restarts, kills,
scenarios/hour) that validates against
:data:`repro.obs.schema.SERVICE_SUMMARY_SCHEMA`; the serve loop writes
it atomically to ``status.json`` on every pass, so an operator — or the
chaos harness — can watch a live (or freshly killed) service without
touching the journal.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, Optional

from repro.durable import write_json_atomic
from repro.obs.schema import SERVICE_SUMMARY_SCHEMA, assert_valid, validate

from .queue import JobQueue

STATUS_NAME = "status.json"


class ServiceMetrics:
    """Monotonic counters plus derived throughput for one service run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.started_mono = time.monotonic()
        #: set by the service on startup from the journal (restarts are
        #: observable: each startup of an existing journal counts one).
        self.restarts = 0

    def count(self, name: str) -> None:
        """Increment the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + 1

    def get(self, name: str) -> int:
        """Current value of the named counter (zero if never counted)."""
        return self.counters.get(name, 0)

    def uptime_s(self) -> float:
        """Seconds of service time elapsed since these metrics started."""
        return time.monotonic() - self.started_mono

    def scenarios_per_hour(self) -> float:
        """Completed scenarios extrapolated to an hour of service time."""
        elapsed = max(self.uptime_s(), 1e-9)
        return self.get("completed") * 3600.0 / elapsed

    def summary(self, queue: Optional[JobQueue] = None) -> dict:
        """The schema-validated ``service_summary`` record."""
        counts = queue.counts() if queue is not None else {}
        record = {
            "schema_version": 2,
            "kind": "service_summary",
            "queue_depth": counts.get("pending", 0),
            "running": counts.get("running", 0),
            "submitted": len(queue.jobs) if queue is not None else 0,
            "completed": counts.get("completed", 0),
            "quarantined": counts.get("quarantined", 0),
            "shed": counts.get("shed", 0),
            "retries": self.get("retries"),
            "worker_kills": self.get("worker_kills"),
            "workers_spawned": self.get("workers_spawned"),
            "duplicate_submits": queue.duplicate_submits if queue is not None else 0,
            "restarts": self.restarts,
            "uptime_s": self.uptime_s(),
            "scenarios_per_hour": self.scenarios_per_hour(),
        }
        assert_valid(
            validate(record, SERVICE_SUMMARY_SCHEMA), "service summary record"
        )
        return record

    def write_status(self, root: pathlib.Path, queue: Optional[JobQueue]) -> dict:
        """Atomically publish ``status.json`` under ``root``."""
        record = self.summary(queue)
        write_json_atomic(pathlib.Path(root) / STATUS_NAME, record)
        return record
