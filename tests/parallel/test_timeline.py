"""Tests for the runtime's schedule: the ``bsp`` spans it traces."""

import pytest

from repro.gcm.timestepper import Model, ModelConfig
from repro.gcm.grid import GridParams
from repro.obs.trace import tracing
from repro.parallel.runtime import LockstepRuntime
from repro.parallel.tiling import Decomposition


def make_runtime():
    d = Decomposition(32, 16, 2, 2, olx=1)
    return LockstepRuntime(d)


def bsp_spans(tracer):
    """``(kind, t_start, t_end)`` of each traced charge, in seconds."""
    scale = tracer.time_scale
    return [
        (e["name"], e["ts"] / scale, (e["ts"] + e["dur"]) / scale)
        for e in tracer.events
        if e.get("cat") == "bsp"
    ]


class TestTimeline:
    def test_events_recorded_in_order(self):
        rt = make_runtime()
        with tracing() as t:
            rt.charge_compute(1e6, phase="ps")
            fields = [tile.alloc2d() for tile in rt.decomp.tiles]
            rt.exchange(fields)
            rt.global_sum([1.0] * 4)
        kinds = [k for k, _, _ in bsp_spans(t)]
        assert kinds == ["compute:ps", "exchange:1f", "gsum"]

    def test_events_are_contiguous_and_monotone(self):
        rt = make_runtime()
        with tracing() as t:
            rt.charge_compute(1e6, phase="ps")
            rt.global_sum([0.0] * 4)
            rt.charge_compute(2e6, phase="ds")
        spans = bsp_spans(t)
        for kind, t0, t1 in spans:
            assert t0 <= t1
        ends = [t1 for _, _, t1 in spans]
        assert ends == sorted(ends)
        # the final event's end is the runtime's elapsed clock
        assert spans[-1][2] == pytest.approx(rt.elapsed)

    def test_gcm_step_produces_full_schedule(self):
        cfg = ModelConfig(grid=GridParams(nx=32, ny=16, nz=4), px=2, py=2)
        d = Decomposition(32, 16, 2, 2, olx=cfg.olx)
        rt = LockstepRuntime(d, cpus_per_node=2)
        m = Model(cfg, runtime=rt)
        with tracing() as t:
            m.step()
        spans = bsp_spans(t)
        kinds = {k.split(":")[0] for k, _, _ in spans}
        assert "exchange" in kinds and "compute" in kinds
        # the PS exchange of 5 fields appears by name
        assert any(k == "exchange:5f" for k, _, _ in spans)
