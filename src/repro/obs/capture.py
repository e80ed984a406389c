"""One-call traced runs: the workload behind ``repro trace``.

Runs the small coupled atmosphere-ocean demo on the simulated Hyades
cluster with the tracer and per-phase metrics attached, so one command
produces a Chrome trace covering every clock domain of the system:

* the DES engine clock — fabric links, NIU packet lifecycles, process
  block/unblock spans, the coupler's wire windows;
* each isomorph's lockstep BSP clock — compute/exchange/gsum spans on
  the critical path.
"""

from __future__ import annotations

from repro.obs import trace as obs_trace
from repro.obs.schema import assert_valid, validate_chrome_trace


def traced_coupled_run(windows: int = 1) -> dict:
    """Run the coupled DES demo under tracing; returns the results.

    The returned dict carries the :class:`~repro.obs.trace.Tracer` (with
    the full event buffer), the per-isomorph
    :class:`~repro.obs.metrics.MetricsRecorder` objects, and headline
    numbers of the run (virtual times, event counts).
    """
    from repro.gcm.coupled import DEMO_SHAPE, coupled_model
    from repro.hardware.cluster import HyadesCluster

    cluster = HyadesCluster()
    with obs_trace.tracing() as tr:
        model = coupled_model(cluster=cluster, **DEMO_SHAPE)
        atm_metrics = model.atmosphere.runtime.attach_metrics()
        ocn_metrics = model.ocean.runtime.attach_metrics()
        model.run(windows)

    return {
        "tracer": tr,
        "atm_metrics": atm_metrics,
        "ocn_metrics": ocn_metrics,
        "windows": windows,
        "steps_per_component": windows * DEMO_SHAPE["coupling_interval"],
        "des_elapsed_s": model.des_elapsed,
        "engine_time_s": cluster.engine.now,
        "bsp_elapsed_s": model.elapsed,
        "engine_events": cluster.engine.events_executed,
    }


def save_trace(result: dict, path: str) -> dict:
    """Validate and write the trace of a :func:`traced_coupled_run`.

    Returns the Chrome trace object that was written; raises
    ``ValueError`` if the trace fails schema validation (CI gates on
    this).
    """
    tr: obs_trace.Tracer = result["tracer"]
    obj = tr.to_chrome()
    assert_valid(validate_chrome_trace(obj), "Chrome trace")
    tr.save(path)
    return obj
