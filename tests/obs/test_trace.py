"""Tracer unit tests: track naming, span pairing, export, overhead-off."""

import json

import pytest

from repro.obs import trace
from repro.obs.schema import validate_chrome_trace


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with tracing off."""
    trace.stop()
    yield
    trace.stop()


def test_tracing_off_by_default():
    assert trace.TRACER is None


def test_start_stop_install_and_remove():
    t = trace.start()
    assert trace.TRACER is t
    assert trace.stop() is t
    assert trace.TRACER is None


def test_tracing_context_manager_restores_off():
    with trace.tracing() as t:
        assert trace.TRACER is t
    assert trace.TRACER is None


def test_complete_span_emits_metadata_once():
    t = trace.Tracer()
    t.complete("fabric", "link0", "a->b", 1e-6, 2e-6, cat="link")
    t.complete("fabric", "link0", "a->b", 3e-6, 4e-6, cat="link")
    metas = [e for e in t.events if e["ph"] == "M"]
    # one process_name + one thread_name, despite two spans
    assert len(metas) == 2
    xs = [e for e in t.events if e["ph"] == "X"]
    assert len(xs) == 2
    assert xs[0]["ts"] == pytest.approx(1.0)  # seconds -> us
    assert xs[0]["dur"] == pytest.approx(1.0)


def test_distinct_tracks_get_distinct_ids():
    t = trace.Tracer()
    t.instant("fabric", "a", "x", 0.0)
    t.instant("fabric", "b", "x", 0.0)
    t.instant("niu", "a", "x", 0.0)
    pids = {e["pid"] for e in t.events if e["ph"] == "i"}
    assert len(pids) == 2
    tids = {(e["pid"], e["tid"]) for e in t.events if e["ph"] == "i"}
    assert len(tids) == 3


def test_begin_end_pairing_and_finalize_autocloses():
    t = trace.Tracer()
    t.begin("processes", "p0", "wait", 1e-6)
    t.begin("processes", "p0", "inner", 2e-6)
    t.end("processes", "p0", 3e-6)
    obj = t.to_chrome()  # finalize() closes the still-open outer span
    begins = [e for e in obj["traceEvents"] if e["ph"] == "B"]
    ends = [e for e in obj["traceEvents"] if e["ph"] == "E"]
    assert len(begins) == len(ends) == 2
    assert validate_chrome_trace(obj) == []


def test_end_without_begin_is_ignored():
    t = trace.Tracer()
    t.end("processes", "p0", 1e-6)
    assert [e for e in t.events if e["ph"] == "E"] == []


def test_counter_and_instant_shapes():
    t = trace.Tracer()
    t.counter("engine", "events", 1e-6, {"pending": 3})
    t.instant("fabric", "link0", "drop", 2e-6, cat="fault", args={"src": 0})
    obj = t.to_chrome()
    assert validate_chrome_trace(obj) == []


def test_max_events_cap_counts_dropped():
    t = trace.Tracer(max_events=4)
    for i in range(10):
        t.instant("fabric", "l", "x", i * 1e-6)
    assert t.n_events == 4
    assert t.dropped > 0
    assert t.to_chrome()["otherData"]["dropped_events"] == t.dropped


def test_save_round_trips_json(tmp_path):
    t = trace.Tracer()
    t.complete("fabric", "link0", "a->b", 0.0, 1e-6)
    path = tmp_path / "trace.json"
    t.save(str(path))
    obj = json.loads(path.read_text())
    assert validate_chrome_trace(obj) == []
    assert obj["otherData"]["generator"] == "repro.obs"
