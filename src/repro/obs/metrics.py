"""Per-phase metrics: where the virtual time of a run goes.

The paper's analysis decomposes each step into PS/DS phases and each
phase into compute / exchange / global-sum terms (eqs. 4-10).  A
:class:`MetricsRecorder` attached to a
:class:`~repro.parallel.runtime.LockstepRuntime` captures exactly that
decomposition as the run executes: every charge the runtime makes on
the critical-path clock is recorded under its phase (``"ps"``, ``"ds"``,
``"nh"``, ...) and kind (``compute``/``exchange``/``gsum``/``barrier``/
``sync``), along with flop and byte volumes.

:func:`phase_crosscheck` then closes the loop the paper's Section 5.3
validation closes: the *measured* per-phase times of a finished run are
compared against the *analytic* interconnect cost-model predictions —
they must agree, since the runtime charges from the same primitives the
model composes; disagreement means the accounting plumbing is broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Charge kinds a recorder accepts.
KINDS = ("compute", "exchange", "gsum", "barrier", "sync")


@dataclass
class PhaseTotals:
    """Accumulated virtual time and volume for one phase."""

    compute_s: float = 0.0
    exchange_s: float = 0.0
    gsum_s: float = 0.0
    barrier_s: float = 0.0
    sync_s: float = 0.0
    flops: int = 0
    bytes: int = 0
    n_exchanges: int = 0
    n_gsums: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-ready)."""
        return {
            "compute_s": self.compute_s,
            "exchange_s": self.exchange_s,
            "gsum_s": self.gsum_s,
            "barrier_s": self.barrier_s,
            "sync_s": self.sync_s,
            "flops": self.flops,
            "bytes": self.bytes,
            "n_exchanges": self.n_exchanges,
            "n_gsums": self.n_gsums,
        }


@dataclass
class StepRecord:
    """Per-phase deltas over one model step, plus caller-supplied tags."""

    phases: dict = field(default_factory=dict)  # phase -> PhaseTotals
    meta: dict = field(default_factory=dict)


class MetricsRecorder:
    """Accumulates per-phase charges; snapshots them per model step."""

    def __init__(self) -> None:
        self.phases: dict[str, PhaseTotals] = {}
        self.steps: list[StepRecord] = []
        self._mark: dict[str, dict] = {}

    def phase(self, name: str) -> PhaseTotals:
        """The running totals of phase ``name`` (created on demand)."""
        tot = self.phases.get(name)
        if tot is None:
            tot = self.phases[name] = PhaseTotals()
        return tot

    def record(
        self,
        phase: str,
        kind: str,
        seconds: float,
        flops: int = 0,
        nbytes: int = 0,
        exchanges: int = 0,
        gsums: int = 0,
    ) -> None:
        """Add one charge to a phase's totals."""
        if kind not in KINDS:
            raise ValueError(f"unknown charge kind {kind!r}; have {KINDS}")
        tot = self.phase(phase)
        setattr(tot, f"{kind}_s", getattr(tot, f"{kind}_s") + seconds)
        tot.flops += int(flops)
        tot.bytes += int(nbytes)
        tot.n_exchanges += exchanges
        tot.n_gsums += gsums

    # -- step boundaries -------------------------------------------------

    def end_step(self, **meta) -> StepRecord:
        """Close one model step: store the per-phase deltas since the
        previous call (plus any keyword tags, e.g. ``ni=12``)."""
        rec = StepRecord(meta=dict(meta))
        for name, tot in self.phases.items():
            prev = self._mark.get(name, {})
            delta = PhaseTotals()
            for key, val in tot.as_dict().items():
                setattr(delta, key, val - prev.get(key, 0))
            rec.phases[name] = delta
        self._mark = {name: tot.as_dict() for name, tot in self.phases.items()}
        self.steps.append(rec)
        return rec

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per-phase accumulated totals as plain dicts."""
        return {name: tot.as_dict() for name, tot in sorted(self.phases.items())}

    def per_step(self, skip_first: bool = False) -> dict[str, dict]:
        """Mean per-step phase deltas (optionally dropping the spin-up
        step, as the paper's steady-state accounting does)."""
        steps = self.steps[1:] if skip_first and len(self.steps) > 1 else self.steps
        if not steps:
            return {}
        out: dict[str, dict] = {}
        for rec in steps:
            for name, tot in rec.phases.items():
                acc = out.setdefault(name, {k: 0.0 for k in tot.as_dict()})
                for key, val in tot.as_dict().items():
                    acc[key] += val
        n = len(steps)
        return {
            name: {key: val / n for key, val in acc.items()}
            for name, acc in sorted(out.items())
        }


# ---------------------------------------------------------------------------
# Analytic cross-check
# ---------------------------------------------------------------------------


def _rel_err(measured: float, predicted: float) -> Optional[float]:
    if predicted == 0.0:
        return None if measured == 0.0 else float("inf")
    return (measured - predicted) / predicted


def phase_crosscheck(model) -> list[dict]:
    """Measured per-phase times of a finished run vs the cost model.

    ``model`` is a :class:`repro.gcm.timestepper.Model` whose runtime had
    a recorder attached (``model.runtime.attach_metrics()``) before
    running.  Returns one row per cross-checked quantity::

        {"quantity", "measured_s", "predicted_s", "rel_err"}

    Predictions come from the same analytic
    :class:`~repro.network.costmodel.CommCostModel` the paper's Fig. 11
    uses: PS exchanges five 3-D fields per step at the interior-tile
    halo volume; DS runs two 2-field width-1 exchanges and two global
    sums per solver iteration.
    """
    from repro.core.pfpp import comm_terms
    from repro.parallel.runtime import PS_FLOP_RATE

    rt = model.runtime
    rec = rt.metrics
    if rec is None or not model.history:
        raise ValueError("attach a MetricsRecorder and run >= 1 step first")
    cm = rt.backend.model
    n_steps = len(model.history)
    totals = {name: tot for name, tot in rec.phases.items()}
    ps = totals.get("ps", PhaseTotals())
    ds = totals.get("ds", PhaseTotals())

    # The run's own mapping: PS on every rank (one five-field full-halo
    # 3-D exchange per step), DS on its own decomposition with one
    # 2-field width-1 exchange and two global sums over the SMP masters
    # per CG iteration (Sections 4.2, 5.2).  A serial run moves nothing.
    ni_total = sum(max(h.ni, 1) for h in model.history)
    tgsum = texchxy = texchxyz = 0.0
    if rt.n_ranks > 1:
        tgsum, texchxy, texchxyz, _ = comm_terms(
            cm,
            model.decomp,
            model.grid.nz,
            ds_decomp=model.ds_decomp,
            mixmode=rt.mixmode,
            n_nodes=rt.n_nodes,
        )
    ps_exch_pred = 5 * texchxyz * n_steps
    ds_exch_pred = ni_total * 2 * texchxy
    ds_gsum_pred = ni_total * 2 * tgsum

    # PS compute: counted flops at Fps, exact by construction.
    ps_comp_pred = ps.flops / PS_FLOP_RATE if rt.n_ranks == 1 else None

    rows = [
        {
            "quantity": "ps_exchange",
            "measured_s": ps.exchange_s,
            "predicted_s": ps_exch_pred,
            "rel_err": _rel_err(ps.exchange_s, ps_exch_pred),
        },
        {
            "quantity": "ds_exchange",
            "measured_s": ds.exchange_s,
            "predicted_s": ds_exch_pred,
            "rel_err": _rel_err(ds.exchange_s, ds_exch_pred),
        },
        {
            "quantity": "ds_gsum",
            "measured_s": ds.gsum_s,
            "predicted_s": ds_gsum_pred,
            "rel_err": _rel_err(ds.gsum_s, ds_gsum_pred),
        },
    ]
    if ps_comp_pred is not None:
        rows.insert(
            1,
            {
                "quantity": "ps_compute",
                "measured_s": ps.compute_s,
                "predicted_s": ps_comp_pred,
                "rel_err": _rel_err(ps.compute_s, ps_comp_pred),
            },
        )
    return rows
