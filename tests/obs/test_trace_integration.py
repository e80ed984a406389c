"""End-to-end tracing: the traced coupled demo and the determinism invariant."""

import json

import pytest

from repro.obs import trace as obs_trace
from repro.obs.capture import save_trace, traced_coupled_run
from repro.obs.schema import validate_chrome_trace


@pytest.fixture(autouse=True)
def _no_global_tracer():
    obs_trace.stop()
    yield
    obs_trace.stop()


@pytest.fixture(scope="module")
def traced():
    obs_trace.stop()
    try:
        return traced_coupled_run(windows=1)
    finally:
        obs_trace.stop()


def test_trace_covers_every_clock_domain(traced):
    cats = traced["tracer"].category_counts()
    for cat in ("link", "niu", "proc", "bsp", "coupler"):
        assert cats.get(cat, 0) > 0, f"no '{cat}' events in {cats}"


def test_trace_validates_and_saves(traced, tmp_path):
    path = tmp_path / "run.json"
    obj = save_trace(traced, str(path))
    assert validate_chrome_trace(obj) == []
    on_disk = json.loads(path.read_text())
    assert len(on_disk["traceEvents"]) == len(obj["traceEvents"])


def test_metrics_attached_to_both_isomorphs(traced):
    for key in ("atm_metrics", "ocn_metrics"):
        rec = traced[key]
        assert len(rec.steps) == traced["steps_per_component"]
        assert rec.phase("ps").compute_s > 0
        assert rec.phase("ps").exchange_s > 0


def test_tracing_does_not_perturb_the_simulation(traced):
    """The determinism invariant: the tracer only reads clocks, so a
    traced run must be event-for-event identical to an untraced one."""
    from repro.gcm.coupled import DEMO_SHAPE, coupled_model
    from repro.hardware.cluster import HyadesCluster

    assert obs_trace.TRACER is None  # genuinely untraced
    cluster = HyadesCluster()
    model = coupled_model(cluster=cluster, **DEMO_SHAPE)
    model.run(1)
    assert cluster.engine.events_executed == traced["engine_events"]
    assert cluster.engine.now == traced["engine_time_s"]
    assert model.des_elapsed == traced["des_elapsed_s"]
    assert model.elapsed == traced["bsp_elapsed_s"]


def test_bsp_tracks_are_labelled_per_component(traced):
    obj = traced["tracer"].to_chrome()
    names = {
        e["args"]["name"]
        for e in obj["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert "bsp:atmosphere" in names
    assert "bsp:ocean" in names
