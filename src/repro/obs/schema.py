"""Schemas for the machine-readable telemetry artifacts.

Two artifact families leave a run:

* ``BENCH_<name>.json`` — one benchmark result, written through the
  shared emitter.  The schema admits virtual-time seconds, model error
  and a payload of paper quantities — no host time, timestamp or
  platform field — so a record is a pure function of the code and CI
  can regenerate and diff it.
* Chrome trace-event JSON — the DES trace written by ``repro trace``.

Validation is a dependency-free subset of JSON Schema (type, required,
properties, additionalProperties, items, enum, minimum/maximum): enough
to catch malformed records at write time and in CI, with no installs.
"""

from __future__ import annotations

from typing import Any

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, typ: str) -> bool:
    if typ == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[typ])


def validate(obj: Any, schema: dict, path: str = "$") -> list[str]:
    """Validate ``obj`` against a schema; returns a list of errors
    (empty when valid)."""
    errors: list[str] = []
    typ = schema.get("type")
    if typ is not None:
        types = typ if isinstance(typ, list) else [typ]
        if not any(_type_ok(obj, t) for t in types):
            errors.append(f"{path}: expected {'/'.join(types)}, got {type(obj).__name__}")
            return errors  # no point descending with the wrong shape
    if "enum" in schema and obj not in schema["enum"]:
        errors.append(f"{path}: {obj!r} not one of {schema['enum']!r}")
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if "minimum" in schema and obj < schema["minimum"]:
            errors.append(f"{path}: {obj!r} < minimum {schema['minimum']!r}")
        if "maximum" in schema and obj > schema["maximum"]:
            errors.append(f"{path}: {obj!r} > maximum {schema['maximum']!r}")
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, val in obj.items():
            sub = props.get(key)
            if sub is not None:
                errors.extend(validate(val, sub, f"{path}.{key}"))
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                errors.extend(validate(val, extra, f"{path}.{key}"))
    if isinstance(obj, list):
        if "minItems" in schema and len(obj) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        items = schema.get("items")
        if items is not None:
            for i, val in enumerate(obj):
                errors.extend(validate(val, items, f"{path}[{i}]"))
    return errors


# ---------------------------------------------------------------------------
# Benchmark records
# ---------------------------------------------------------------------------

#: Current BENCH record schema version.
BENCH_SCHEMA_VERSION = 2

#: Schema of one ``benchmarks/out/BENCH_<name>.json`` record.
BENCH_SCHEMA: dict = {
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "name",
        "virtual_time_s",
        "model_error",
        "data",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "kind": {"enum": ["benchmark"]},
        "name": {"type": "string"},
        #: Simulated seconds of the run (null for pure-model benchmarks).
        "virtual_time_s": {"type": ["number", "null"]},
        #: Named relative errors of the reproduction vs the paper/model
        #: (e.g. {"sustained_gflops": -0.012}); null = not applicable.
        "model_error": {
            "type": ["object", "null"],
            "additionalProperties": {"type": ["number", "null"]},
        },
        #: Benchmark-specific payload (sweeps, tables, counters).
        "data": {"type": "object"},
        "units": {"type": "object", "additionalProperties": {"type": "string"}},
    },
}


def validate_bench(record: dict) -> list[str]:
    """Errors in a BENCH record (empty when valid)."""
    return validate(record, BENCH_SCHEMA)


# ---------------------------------------------------------------------------
# Ensemble-service status records
# ---------------------------------------------------------------------------

#: Schema of the ensemble service's ``status.json`` snapshot
#: (:meth:`repro.service.metrics.ServiceMetrics.summary`): queue depth,
#: pool activity, the retry/quarantine/shed tallies and throughput.
SERVICE_SUMMARY_SCHEMA: dict = {
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "queue_depth",
        "running",
        "submitted",
        "completed",
        "quarantined",
        "shed",
        "retries",
        "worker_kills",
        "restarts",
        "scenarios_per_hour",
        "uptime_s",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "kind": {"enum": ["service_summary"]},
        "queue_depth": {"type": "integer", "minimum": 0},
        "running": {"type": "integer", "minimum": 0},
        "submitted": {"type": "integer", "minimum": 0},
        "completed": {"type": "integer", "minimum": 0},
        "quarantined": {"type": "integer", "minimum": 0},
        "shed": {"type": "integer", "minimum": 0},
        "retries": {"type": "integer", "minimum": 0},
        "worker_kills": {"type": "integer", "minimum": 0},
        "workers_spawned": {"type": "integer", "minimum": 0},
        "duplicate_submits": {"type": "integer", "minimum": 0},
        "restarts": {"type": "integer", "minimum": 0},
        "scenarios_per_hour": {"type": "number", "minimum": 0},
        #: Host seconds this service process has been up: operational
        #: state, the one host-time field any schema here admits.
        "uptime_s": {"type": "number", "minimum": 0},
    },
}


def validate_service_summary(record: dict) -> list[str]:
    """Errors in a service status record (empty when valid)."""
    return validate(record, SERVICE_SUMMARY_SCHEMA)


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

#: Per-phase required fields of the trace events the tracer emits.
_TRACE_REQUIRED = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(obj: Any, max_errors: int = 20) -> list[str]:
    """Errors in a Chrome trace-event JSON object (empty when valid)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"$: expected object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["$.traceEvents: missing or not an array"]
    if not events:
        errors.append("$.traceEvents: empty trace")
    for i, ev in enumerate(events):
        if len(errors) >= max_errors:
            errors.append("... (further errors suppressed)")
            break
        where = f"$.traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            errors.append(f"{where}: missing 'ph'")
            continue
        required = _TRACE_REQUIRED.get(ph)
        if required is None:
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        for key in required:
            if key not in ev:
                errors.append(f"{where}: ph={ph!r} missing {key!r}")
        for key in ("ts", "dur"):
            val = ev.get(key)
            if val is not None and (
                not isinstance(val, (int, float)) or isinstance(val, bool) or val < 0
            ):
                errors.append(f"{where}: {key}={val!r} not a non-negative number")
    return errors


def assert_valid(errors: list[str], what: str) -> None:
    """Raise ``ValueError`` with the collected errors, if any."""
    if errors:
        listing = "\n  ".join(errors)
        raise ValueError(f"invalid {what}:\n  {listing}")
