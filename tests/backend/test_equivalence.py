"""Backend equivalence: bit-exact numerics, banded timings, hybrid windows.

The backend contract (docs/backends.md): fidelity changes *when* phases
are charged, never *what* the model computes — so GCM state must be
bit-exact across tiers, cheap-tier phase times must sit within the 5 %
band of DES, and the hybrid tier must actually switch to DES fidelity
for degraded windows.
"""

import subprocess
import sys

import pytest

from repro.backend import DESBackend, HybridBackend, run_crossval
from repro.faults import BandwidthEvent, DegradationSchedule, FaultPlan
from repro.gcm.coupled import coupled_model
from repro.gcm.state import model_digest

#: A reduced coupled configuration: big enough to exercise both solvers
#: and the coupler, small enough to run three tiers in a few seconds.
SMALL = dict(
    nx=16, ny=8, nz_atm=3, nz_ocn=4, px=2, py=2, dt=300.0, coupling_interval=2
)
WINDOWS = 2


def _run(backend, windows=WINDOWS, **overrides):
    cm = coupled_model(backend=backend, **{**SMALL, **overrides})
    cm.run(windows)
    return cm


def _digest(cm):
    return model_digest(cm.atmosphere) + "+" + model_digest(cm.ocean)


@pytest.fixture(scope="module")
def tier_runs():
    """One small coupled run per tier, shared across the module."""
    return {tier: _run(tier) for tier in ("des", "analytic", "hybrid")}


class TestBitExactness:
    def test_state_digests_identical_across_tiers(self, tier_runs):
        digests = {t: _digest(cm) for t, cm in tier_runs.items()}
        assert len(set(digests.values())) == 1, digests

    def test_flop_counts_identical_across_tiers(self, tier_runs):
        flops = {
            t: (cm.atmosphere.runtime.total_flops(), cm.ocean.runtime.total_flops())
            for t, cm in tier_runs.items()
        }
        assert len(set(flops.values())) == 1, flops


class TestTimingBand:
    def test_phase_times_within_band_of_des(self, tier_runs):
        des = tier_runs["des"]

        def phases(cm):
            a, o = cm.atmosphere.runtime.summary(), cm.ocean.runtime.summary()
            return {
                "exchange": a["exchange_time"] + o["exchange_time"],
                "gsum": a["gsum_time"] + o["gsum_time"],
                "elapsed": cm.elapsed,
            }

        ref = phases(des)
        for tier in ("analytic", "hybrid"):
            got = phases(tier_runs[tier])
            for q, v in ref.items():
                err = abs(got[q] - v) / v
                assert err <= 0.05, f"{tier} {q}: {err:.1%} off DES"

    def test_crossval_gate_passes(self):
        report = run_crossval(windows=1)
        assert report["passed"], report
        assert report["bit_exact"]
        assert report["max_rel_err"] <= report["tolerance"]

    def test_the_gate_loads_no_service_module(self):
        """The digest lives with the state it hashes: a quoting process
        does not import the ensemble service (and ``multiprocessing``)
        to reach a CRC helper."""
        code = (
            "import sys; from repro.backend import run_crossval; "
            "assert run_crossval(windows=1)['passed']; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    def test_the_service_still_exports_the_digest(self, tier_runs):
        import repro.service
        from repro.service.jobs import model_digest as service_digest

        model = tier_runs["analytic"].ocean
        assert repro.service.model_digest is service_digest
        assert service_digest(model) == model_digest(model)

    def test_reports_are_pure_functions_of_their_inputs(self):
        """No timer rides along: two consecutive calls return ``==``
        reports, which is what lets ``benchmarks/out/`` be diffed."""
        from repro.backend import large_sweep

        assert run_crossval(windows=1) == run_crossval(windows=1)
        assert large_sweep((16, 64), backend="analytic") == large_sweep(
            (16, 64), backend="analytic"
        )


def _degrade(hb, start, duration):
    """Attach a schedule degrading every link during ``[start, +duration)``."""
    ev = BandwidthEvent(link="", start=start, duration=duration, factor=0.5)
    hb.set_degradation(DegradationSchedule(FaultPlan(degradations=(ev,))))


class TestHybridWindows:
    def test_fault_plan_windows_served_by_des(self):
        hb = HybridBackend()
        cm = coupled_model(backend=hb, **SMALL)
        cm.step_coupled()
        # the second window opens at t1 and only it overlaps the event
        t1 = cm.elapsed
        _degrade(hb, t1, 0.5 * t1)
        cm.run(2)
        stats = hb.tier_stats()
        assert stats["windows"] == {"analytic": 2, "des": 1}
        assert stats["queries"]["des"] > 0
        # the packet simulations actually ran for the degraded window
        assert hb.des.simulations > 0

    def test_faulted_step_forces_des_fidelity(self):
        hb = HybridBackend()
        _degrade(hb, 0.0, 1e-9)
        cm = coupled_model(backend=hb, **SMALL)
        cm.step_coupled()
        assert hb.tier_stats()["windows"]["des"] == 1
        cm.step_coupled()
        assert hb.tier_stats()["windows"]["analytic"] == 1

    def test_hybrid_state_unaffected_by_fault_windows(self, tier_runs):
        hb = HybridBackend()
        _degrade(hb, 0.0, 1e-9)
        cm = _run(hb)
        assert hb.tier_stats()["windows"] == {"analytic": 1, "des": 1}
        assert _digest(cm) == _digest(tier_runs["analytic"])

    def test_shared_instance_serves_both_isomorphs(self):
        hb = HybridBackend()
        cm = coupled_model(backend=hb, **SMALL)
        assert cm.backends() == [hb]
        des = DESBackend()
        cm2 = coupled_model(backend=des, **SMALL)
        assert cm2.atmosphere.runtime.backend is des
        assert cm2.ocean.runtime.backend is des
