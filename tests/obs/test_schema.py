"""The dependency-free schema validator and the artifact schemas."""

import pytest

from repro.obs.schema import (
    BENCH_SCHEMA_VERSION,
    assert_valid,
    validate,
    validate_bench,
    validate_chrome_trace,
)


def _bench(**over):
    rec = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "benchmark",
        "name": "demo",
        "virtual_time_s": 1.25,
        "model_error": {"sustained_gflops": -0.01},
        "data": {"rows": 3},
    }
    rec.update(over)
    return rec


class TestValidator:
    def test_type_mismatch(self):
        assert validate(3, {"type": "string"})
        assert validate("x", {"type": "string"}) == []

    def test_bool_is_not_a_number(self):
        assert validate(True, {"type": "number"})
        assert validate(1.5, {"type": "number"}) == []

    def test_union_types(self):
        schema = {"type": ["number", "null"]}
        assert validate(None, schema) == []
        assert validate(2, schema) == []
        assert validate("x", schema)

    def test_required_and_additional(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        assert validate({"a": 1}, schema) == []
        assert any("missing" in e for e in validate({}, schema))
        assert any("unexpected" in e for e in validate({"a": 1, "b": 2}, schema))

    def test_minimum_enum_items(self):
        assert validate(-1, {"type": "number", "minimum": 0})
        assert validate("z", {"enum": ["a", "b"]})
        assert validate([1, "x"], {"type": "array", "items": {"type": "integer"}})
        assert validate([], {"type": "array", "minItems": 1})


class TestBenchSchema:
    def test_valid_record(self):
        assert validate_bench(_bench()) == []

    def test_null_virtual_time_and_model_error_allowed(self):
        assert validate_bench(_bench(virtual_time_s=None, model_error=None)) == []

    def test_missing_field_rejected(self):
        rec = _bench()
        del rec["virtual_time_s"]
        assert any("virtual_time_s" in e for e in validate_bench(rec))

    def test_unknown_field_rejected(self):
        assert any(
            "unexpected" in e for e in validate_bench(_bench(extra="nope"))
        )

    def test_host_time_fields_rejected(self):
        for field in ("wall_clock_s", "created_unix", "provenance"):
            errors = validate_bench(_bench(**{field: 0.5}))
            assert any("unexpected" in e and field in e for e in errors)


class TestChromeTraceSchema:
    def test_valid_minimal_trace(self):
        obj = {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                 "args": {"name": "fabric"}},
                {"ph": "X", "name": "s", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            ]
        }
        assert validate_chrome_trace(obj) == []

    def test_missing_events_key(self):
        assert validate_chrome_trace({})
        assert validate_chrome_trace([])

    def test_empty_trace_flagged(self):
        assert validate_chrome_trace({"traceEvents": []})

    def test_missing_required_field_flagged(self):
        obj = {"traceEvents": [{"ph": "X", "name": "s", "ts": 0}]}
        errors = validate_chrome_trace(obj)
        assert any("dur" in e for e in errors)

    def test_negative_timestamp_flagged(self):
        obj = {"traceEvents": [
            {"ph": "i", "name": "e", "ts": -1, "pid": 1, "tid": 1}
        ]}
        assert any("ts" in e for e in validate_chrome_trace(obj))

    def test_error_cap(self):
        obj = {"traceEvents": [{"bogus": 1}] * 100}
        errors = validate_chrome_trace(obj, max_errors=5)
        assert len(errors) <= 6  # 5 + the suppression marker


def test_assert_valid_raises_with_listing():
    with pytest.raises(ValueError, match="invalid thing"):
        assert_valid(["$.x: bad"], "thing")
    assert_valid([], "thing")  # no raise
