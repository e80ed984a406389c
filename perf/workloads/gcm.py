"""``gcm_production`` and ``gcm_reduced``: the coupled model, two sizes.

Both workloads run the same code — :func:`repro.gcm.coupled.coupled_model`
stepped one coupling window at a time — at the two sizes that matter:

* ``gcm_production`` is the paper's 2.8125-degree configuration
  (128x64 columns, 10/30 levels, 4x4 tiles of 32x16 columns, coupling
  every 4 steps) on the analytic tier: what a climate user runs.  Tiles
  are large, NumPy array work dominates and per-tile Python overhead is
  small.  It is the control for ROADMAP item 2's stacked-tile work:
  little or no change expected there, and no loss.
* ``gcm_reduced`` is the 64x32, 5/8-level, 4x4-tile configuration that
  CI, fig09, the service jobs and the precision search all use, on the
  DES tier.  Tiles are 16x8 columns: about three times the production
  cost per cell, i.e. interpreter and small-array overhead — the regime
  ROADMAP item 2 attacks.

Every block starts from a freshly built model that has run one warm-up
window, so each block times the same windows of the same trajectory:
digests, virtual time, flops and CG iterations repeat exactly.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional

from perf.harness import Recorder, Workload


class _CoupledWorkload(Workload):
    """Shared body of the two coupled-model workloads."""

    #: ``coupled_model`` keyword arguments (without ``backend``).
    config: Dict[str, int] = {}
    backend = "analytic"
    block_ops = 4  # timed windows per block
    #: virtual-time band of the analytic tier against the DES tier
    #: (``docs/backends.md``: the cross-validation contract).
    BAND = 0.05

    def prepare(self) -> None:
        import numpy as np
        from repro.gcm.coupled import coupled_model
        from repro.service.jobs import model_digest

        self._np = np
        self._coupled_model = coupled_model
        self._model_digest = model_digest
        self._warm = self._build(self.backend)

    def _build(self, backend: str):
        """A fresh model advanced one (untimed) warm-up window."""
        cm = self._coupled_model(backend=backend, **self.config)
        cm.step_coupled()
        return cm

    def _digest(self, cm) -> str:
        return self._model_digest(cm.atmosphere) + self._model_digest(cm.ocean)

    def block(self, rec: Recorder) -> None:
        cm, self._warm = self._warm or self._build(self.backend), None
        interval = cm.params.coupling_interval
        for _ in range(self.n_ops):
            rec.timed(cm.step_coupled)
            stats = cm.atmosphere.history[-interval:] + cm.ocean.history[-interval:]
            if not all(s.cg_converged for s in stats):
                rec.fail_ops(1, "CG converged in every step", f"window {cm.windows_run}")
        finite = all(
            bool(self._np.isfinite(m.state.to_global(name)).all())
            for m in (cm.atmosphere, cm.ocean)
            for name in ("theta", "u", "ps")
        )
        if not finite:
            rec.fail_ops(self.n_ops, "fields finite", f"block {rec.block}")
        timed = [
            s
            for m in (cm.atmosphere, cm.ocean)
            for s in m.history[interval:]
        ]
        rec.same_every_block("digest", self._digest(cm))
        rec.same_every_block("virtual_elapsed_s", cm.elapsed)
        rec.same_every_block("flops_per_block", sum(s.flops_ps + s.flops_ds for s in timed))
        rec.same_every_block("cg_iters_per_block", sum(s.ni for s in timed))
        rec.counts["windows_per_block"] = self.n_ops
        rec.counts["cell_steps_per_op"] = interval * sum(
            m.grid.params.nx * m.grid.params.ny * m.grid.nz
            for m in (cm.atmosphere, cm.ocean)
        )

    def layer_metrics(self, rec: Recorder) -> Dict[str, Optional[float]]:
        per_block = rec.counts.get("flops_per_block")
        if per_block is None:
            return {}
        flops_per_op = per_block / self.n_ops
        out: Dict[str, Optional[float]] = {
            "gcm.flops_per_op": flops_per_op,
            "gcm.cg_iters_per_op": rec.counts["cg_iters_per_block"] / self.n_ops,
        }
        ops = rec.values("op")
        if ops:
            # the model's own flop count over host (not virtual) seconds
            p50_s = statistics.median(s["s"] / s["ops"] for s in ops)
            out["gcm.host_mflops"] = flops_per_op / p50_s / 1e6
        return out


class GcmProduction(_CoupledWorkload):
    name = "gcm_production"
    op = "one step_coupled() window = 4 atmosphere + 4 ocean steps at 128x64"
    config = dict(nx=128, ny=64, nz_atm=10, nz_ocn=30, px=4, py=4,
                  coupling_interval=4)
    backend = "analytic"
    block_ops = 4
    # a set-up is one second of warm-up window: three repetitions keep
    # the run inside the driver's time cap
    setup_reps = 3


class GcmReduced(_CoupledWorkload):
    name = "gcm_reduced"
    op = "one step_coupled() window = 2 atmosphere + 2 ocean steps at 64x32"
    config = dict(nx=64, ny=32, nz_atm=5, nz_ocn=8, px=4, py=4,
                  coupling_interval=2)
    backend = "des"
    block_ops = 10
    smoke_block_ops = 3

    def finish(self, rec: Recorder) -> None:
        """Re-run one block's windows on the analytic tier: the state
        must be bit-identical (fidelity only changes *when* phases are
        charged) and the virtual time inside the 5 % band."""
        if "digest" not in rec.counts:
            return
        cm = self._build("analytic")
        cm.run(self.n_ops)
        rec.check(
            f"analytic tier reproduces the {self.backend}-tier state bit for bit",
            self._digest(cm) == rec.counts["digest"],
            f"analytic {self._digest(cm)} vs {self.backend} {rec.counts['digest']}",
        )
        tier_s = rec.counts["virtual_elapsed_s"]
        rel = abs(cm.elapsed - tier_s) / tier_s
        rec.model_error(rel)
        rec.counts["virtual_elapsed_analytic_s"] = cm.elapsed
        rec.check(
            f"analytic virtual time within {self.BAND:.0%} of the {self.backend} tier",
            rel <= self.BAND, f"rel err {rel:.5f}",
        )


class GcmReducedAnalytic(GcmReduced):
    """``gcm_reduced`` priced by the analytic tier (traced-only variant)."""

    name = "gcm_reduced.analytic"
    backend = "analytic"


class GcmReducedHybrid(GcmReduced):
    """``gcm_reduced`` priced by the hybrid tier (traced-only variant)."""

    name = "gcm_reduced.hybrid"
    backend = "hybrid"


TIER_VARIANTS = (GcmReducedAnalytic, GcmReducedHybrid)
