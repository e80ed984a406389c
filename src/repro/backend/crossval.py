"""The cross-validation gate: analytic/hybrid vs the DES ground truth.

``repro backend --crossval`` (and the ci.sh gate) runs three workload
families and asserts every cheap-tier phase time lands within the error
band of the packet-level DES, and that the GCM numerics are bit-exact
across all three tiers:

* **fig02** — the point-to-point path: single-edge halo exchanges at
  the Fig. 7 VI block-transfer sizes up to the paper's Fig. 11 halo
  volumes (23 040 B atmosphere, 69 120 B ocean), single and mix-mode;
* **fig08** — the collective path: N-way global sums (2..16, plus the
  2xN SMP variants) and barriers;
* **fig09** — the integrated model: the reduced coupled
  atmosphere-ocean configuration of the fig09 benchmark, comparing
  critical-path exchange/gsum/elapsed virtual times per tier and the
  CRC digests of the complete prognostic state.

The band (default ≤5 %) is the backend contract documented in
``docs/backends.md``: inside it, the analytic tier may stand in for the
DES on steady-state workloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from .analytic import AnalyticBackend
from .base import CommBackend
from .des import DESBackend
from .hybrid import HybridBackend

#: The contract's error band: cheap tiers stay within 5 % of DES.
DEFAULT_TOLERANCE = 0.05

#: fig02 workload: one-direction edge sizes (bytes) spanning the VI
#: block-transfer regime (Fig. 7) up to the Fig. 11 halo volumes.
FIG02_EDGE_BYTES = (128, 1024, 8192, 23040, 69120)

#: fig08 workload: the paper's measured global-sum node counts.
FIG08_NODE_COUNTS = (2, 4, 8, 16)

#: fig09 workload: the reduced coupled configuration of
#: ``benchmarks/bench_fig09_coupled.py``.
FIG09_CONFIG = dict(
    nx=32, ny=16, nz_atm=5, nz_ocn=8, px=2, py=2, dt=300.0, coupling_interval=2
)


@dataclass(frozen=True)
class Check:
    """One cross-validated quantity: the three tiers' answers and the
    cheap tiers' relative errors against DES."""

    workload: str
    quantity: str
    des_s: float
    analytic_s: float
    hybrid_s: float

    @property
    def err_analytic(self) -> float:
        """Relative error of the analytic tier vs DES."""
        return abs(self.analytic_s - self.des_s) / self.des_s if self.des_s else 0.0

    @property
    def err_hybrid(self) -> float:
        """Relative error of the hybrid tier (steady state) vs DES."""
        return abs(self.hybrid_s - self.des_s) / self.des_s if self.des_s else 0.0

    def as_dict(self) -> dict:
        """JSON-ready record including the derived errors."""
        d = asdict(self)
        d["err_analytic"] = self.err_analytic
        d["err_hybrid"] = self.err_hybrid
        return d


def _tiers() -> Dict[str, CommBackend]:
    des = DESBackend()
    hybrid = HybridBackend()
    hybrid.begin_window(degraded=False)  # steady state: the tier under test
    return {"des": des, "analytic": AnalyticBackend(), "hybrid": hybrid}


def _check(workload: str, quantity: str, tiers: Dict[str, CommBackend], fn) -> Check:
    return Check(
        workload,
        quantity,
        des_s=fn(tiers["des"]),
        analytic_s=fn(tiers["analytic"]),
        hybrid_s=fn(tiers["hybrid"]),
    )


def crossval_fig02(tiers: Optional[Dict[str, CommBackend]] = None) -> List[Check]:
    """Point-to-point workload: single-edge exchanges, plain and mix-mode."""
    tiers = tiers or _tiers()
    checks = []
    for s in FIG02_EDGE_BYTES:
        checks.append(
            _check("fig02", f"exch_{s}B", tiers, lambda be, s=s: be.exchange_time([s]))
        )
        checks.append(
            _check(
                "fig02",
                f"exch_{s}B_mix",
                tiers,
                lambda be, s=s: be.exchange_time([s], mixmode=True),
            )
        )
    return checks


def crossval_fig08(tiers: Optional[Dict[str, CommBackend]] = None) -> List[Check]:
    """Collective workload: global sums (single and SMP) and barriers."""
    tiers = tiers or _tiers()
    checks = []
    for n in FIG08_NODE_COUNTS:
        checks.append(
            _check("fig08", f"gsum_{n}way", tiers, lambda be, n=n: be.gsum_time(n))
        )
        checks.append(
            _check(
                "fig08",
                f"gsum_2x{n}way",
                tiers,
                lambda be, n=n: be.gsum_time(n, smp=True),
            )
        )
        checks.append(
            _check("fig08", f"barrier_{n}", tiers, lambda be, n=n: be.barrier_time(n))
        )
    return checks


def crossval_fig09(windows: int = 2) -> tuple[List[Check], Dict[str, str]]:
    """Integrated workload: the reduced coupled run per tier.

    Returns ``(checks, digests)`` where ``digests[tier]`` is the
    concatenated CRC of both components' full prognostic state (the
    bit-exactness assertion).
    """
    from repro.gcm.coupled import coupled_model
    from repro.gcm.state import model_digest

    summaries: Dict[str, dict] = {}
    digests: Dict[str, str] = {}
    for tier in ("des", "analytic", "hybrid"):
        cm = coupled_model(backend=tier, **FIG09_CONFIG)
        cm.run(windows)
        a, o = cm.atmosphere.runtime.summary(), cm.ocean.runtime.summary()
        summaries[tier] = {
            "exchange": a["exchange_time"] + o["exchange_time"],
            "gsum": a["gsum_time"] + o["gsum_time"],
            "elapsed": cm.elapsed,
        }
        digests[tier] = model_digest(cm.atmosphere) + model_digest(cm.ocean)
    checks = [
        Check(
            "fig09",
            q,
            des_s=summaries["des"][q],
            analytic_s=summaries["analytic"][q],
            hybrid_s=summaries["hybrid"][q],
        )
        for q in ("exchange", "gsum", "elapsed")
    ]
    return checks, digests


def run_crossval(windows: int = 2) -> dict:
    """Run the full gate; returns a JSON-ready report.

    ``report["passed"]`` is True iff every analytic and hybrid phase
    time is within :data:`DEFAULT_TOLERANCE` of DES *and* the coupled
    GCM state digests agree bitwise across all three tiers.
    """
    tiers = _tiers()
    checks = crossval_fig02(tiers) + crossval_fig08(tiers)
    fig09_checks, digests = crossval_fig09(windows=windows)
    checks += fig09_checks
    max_err = max(max(c.err_analytic, c.err_hybrid) for c in checks)
    bit_exact = len(set(digests.values())) == 1
    return {
        "tolerance": DEFAULT_TOLERANCE,
        "windows": windows,
        "n_checks": len(checks),
        "max_rel_err": max_err,
        "bit_exact": bit_exact,
        "digests": digests,
        "passed": bool(max_err <= DEFAULT_TOLERANCE and bit_exact),
        "checks": [c.as_dict() for c in checks],
    }

