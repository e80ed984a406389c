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

from typing import Optional

from repro.obs import trace as obs_trace
from repro.obs.schema import assert_valid, validate_chrome_trace


def traced_coupled_run(
    windows: int = 1,
    nx: int = 16,
    ny: int = 8,
    nz_atm: int = 3,
    nz_ocn: int = 4,
    px: int = 2,
    py: int = 2,
    coupling_interval: int = 2,
    reliable: bool = True,
    tracer: Optional[obs_trace.Tracer] = None,
) -> dict:
    """Run the coupled DES demo under tracing; returns the results.

    The returned dict carries the :class:`~repro.obs.trace.Tracer` (with
    the full event buffer), the per-isomorph
    :class:`~repro.obs.metrics.MetricsRecorder` objects, and headline
    numbers of the run (virtual times, event counts).
    """
    from repro.gcm.atmosphere import atmosphere_model
    from repro.gcm.coupled import CouplerParams, DESCoupledModel
    from repro.gcm.ocean import ocean_model
    from repro.hardware.cluster import HyadesCluster

    cluster = HyadesCluster()
    dt = 600.0
    atm = atmosphere_model(nx=nx, ny=ny, nz=nz_atm, px=px, py=py, dt=dt)
    ocn = ocean_model(nx=nx, ny=ny, nz=nz_ocn, px=px, py=py, dt=dt)
    atm_metrics = atm.runtime.attach_metrics()
    ocn_metrics = ocn.runtime.attach_metrics()

    with obs_trace.tracing(tracer) as tr:
        model = DESCoupledModel(
            atm,
            ocn,
            cluster,
            CouplerParams(coupling_interval=coupling_interval),
            reliable=reliable,
        )
        model.run(windows)

    return {
        "tracer": tr,
        "atm_metrics": atm_metrics,
        "ocn_metrics": ocn_metrics,
        "windows": windows,
        "steps_per_component": windows * coupling_interval,
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
