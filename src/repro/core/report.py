"""One-call reproduction report: every paper table, regenerated.

Used by the command-line interface (``python -m repro report``) and by
downstream users who want the whole evaluation as data rather than as
benchmark output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.constants import (
    ATM_PS_PARAMS,
    DS_PARAMS,
    FIG12_PAPER,
)
from repro.core.logp import fig2_table
from repro.core.pfpp import fig12_table
from repro.core.sustained import fig10_table
from repro.core.validation import section53_validation

US = 1e-6
MIN = 60.0


@dataclass
class ReportSection:
    """One reproduced table: a title, column headers, and rows."""

    key: str
    title: str
    headers: list[str]
    rows: list[list[str]]

    def render(self) -> str:
        """Format the section as an aligned text table."""
        widths = [len(h) for h in self.headers]
        rows = [[str(c) for c in r] for r in self.rows]
        for r in rows:
            for i, c in enumerate(r):
                widths[i] = max(widths[i], len(c))
        out = [self.title, "=" * len(self.title)]
        out.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        out.append("  ".join("-" * w for w in widths))
        for r in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(out)


def _fig2_section() -> ReportSection:
    rows = []
    for r in fig2_table(measured=True):
        rows.append(
            [
                f"{r['payload_bytes']} B",
                f"{r['os'] / US:.2f} ({r['paper_os'] / US:.1f})",
                f"{r['or'] / US:.2f} ({r['paper_or'] / US:.1f})",
                f"{r['half_rtt'] / US:.2f} ({r['paper_half_rtt'] / US:.1f})",
                f"{r['latency'] / US:.2f} ({r['paper_latency'] / US:.1f})",
            ]
        )
    return ReportSection(
        "fig2",
        "Fig. 2 - LogP of PIO messaging, DES (paper), usec",
        ["payload", "Os", "Or", "Trt/2", "Lnet"],
        rows,
    )


def _fig10_section() -> ReportSection:
    rows = []
    for r in fig10_table():
        rows.append(
            [
                r["machine"],
                str(r["processors"]),
                f"{r['sustained_gflops']:.3f}",
                f"{r['paper_gflops']:.3f}" if "paper_gflops" in r else "-",
            ]
        )
    return ReportSection(
        "fig10",
        "Fig. 10 - sustained GFlop/s, ocean isomorph",
        ["machine", "CPUs", "GFlop/s", "paper"],
        rows,
    )


def _fig12_section() -> ReportSection:
    rows = []
    for r in fig12_table(from_models=True):
        ref = FIG12_PAPER[r.name]
        rows.append(
            [
                r.name,
                f"{r.tgsum / US:.1f} ({ref['tgsum'] / US:.1f})",
                f"{r.texchxy / US:.1f} ({ref['texchxy'] / US:.1f})",
                f"{r.texchxyz / US:.1f} ({ref['texchxyz'] / US:.1f})",
                f"{r.pfpp_ps / 1e6:.1f} ({ref['pfpp_ps'] / 1e6:.0f})",
                f"{r.pfpp_ds / 1e6:.2f} ({ref['pfpp_ds'] / 1e6:.1f})",
            ]
        )
    return ReportSection(
        "fig12",
        "Fig. 12 - PFPP per interconnect, model (paper)",
        ["interconnect", "tgsum us", "texchxy us", "texchxyz us", "Pfpp,ps MF/s", "Pfpp,ds MF/s"],
        rows,
    )


def _sec53_section() -> ReportSection:
    rep = section53_validation()
    rows = [
        ["Tcomm (min)", f"{rep.tcomm / MIN:.1f}", "30.1"],
        ["Tcomp (min)", f"{rep.tcomp / MIN:.1f}", "151"],
        ["predicted (min)", f"{rep.predicted_total / MIN:.0f}", "181"],
        ["observed (min)", f"{rep.observed / MIN:.0f}", "183"],
        ["error", f"{rep.relative_error * 100:+.1f}%", "~-1%"],
    ]
    return ReportSection(
        "sec53",
        "Section 5.3 - one-year validation (Nt=77760, Ni=60)",
        ["quantity", "reproduction", "paper"],
        rows,
    )


def _fig7_section() -> ReportSection:
    from repro.network.costmodel import arctic_cost_model
    from repro.parallel.des_collectives import des_transfer_bandwidth

    model = arctic_cost_model()
    rows = []
    for s in (256, 1024, 4096, 9216, 32768, 131072):
        rows.append(
            [
                str(s),
                f"{des_transfer_bandwidth(s) / 1e6:.1f}",
                f"{model.perceived_bandwidth(s) / 1e6:.1f}",
            ]
        )
    return ReportSection(
        "fig7",
        "Fig. 7 - VI transfer bandwidth vs block size (MB/s)",
        ["block (B)", "DES", "model"],
        rows,
    )


def _fig8_section() -> ReportSection:
    from repro.collectives.des_exec import des_time_schedule
    from repro.collectives.schedules import allreduce_butterfly
    from repro.hardware.cluster import HyadesCluster
    from repro.network.costmodel import ARCTIC_GSUM_MEASURED

    rows = []
    for n in (2, 4, 8, 16):
        t = des_time_schedule(HyadesCluster(), allreduce_butterfly(n, 8))
        rows.append(
            [f"{n}-way", f"{t / US:.1f}", f"{ARCTIC_GSUM_MEASURED[n] / US:.1f}"]
        )
    return ReportSection(
        "fig8",
        "Section 4.2 - butterfly global sum latency (usec)",
        ["config", "DES", "paper"],
        rows,
    )


def _fig11_section() -> ReportSection:
    from repro.core.constants import OCN_PS_PARAMS
    from repro.core.pfpp import comm_terms
    from repro.network.costmodel import arctic_cost_model
    from repro.parallel.tiling import Decomposition

    # the production mapping: 16 ranks mix-mode, DS on the 8 SMP masters
    hyades = dict(ds_decomp=Decomposition(128, 64, 2, 4, olx=1), mixmode=True)
    cm = arctic_cost_model()
    ps = Decomposition(128, 64, 4, 4, olx=3)
    tg, t2, t3_atm, _ = comm_terms(cm, ps, 10, **hyades)
    t3_ocn = comm_terms(cm, ps, 30, **hyades).texchxyz
    rows = [
        ["texchxyz atmos (us)", f"{t3_atm / US:.0f}", f"{ATM_PS_PARAMS.texchxyz / US:.0f}"],
        ["texchxyz ocean (us)", f"{t3_ocn / US:.0f}", f"{OCN_PS_PARAMS.texchxyz / US:.0f}"],
        ["texchxy (us)", f"{t2 / US:.0f}", f"{DS_PARAMS.texchxy / US:.0f}"],
        ["tgsum 2x8 (us)", f"{tg / US:.1f}", f"{DS_PARAMS.tgsum / US:.1f}"],
        ["nxyz atm/ocn", "5120 / 15360", "5120 / 15360"],
        ["nxy", "1024", "1024"],
    ]
    return ReportSection(
        "fig11",
        "Fig. 11 - performance model parameters, model (paper)",
        ["parameter", "reproduction", "paper"],
        rows,
    )


def _faults_section() -> ReportSection:
    from repro.faults import run_coupled_fault_demo

    res = run_coupled_fault_demo(seed=7, drop=0.01, corrupt=0.002, windows=1)
    fc, pr = res.fault_counters, res.protocol
    rows = [
        ["fault plan", f"seed={res.plan.seed} drop={res.plan.drop_prob:.1%} corrupt={res.plan.corrupt_prob:.1%}", ""],
        ["coupled state bit-exact", str(res.bit_exact), "True"],
        ["injected drops / corruptions", f"{fc['injected_drops']} / {fc['injected_corruptions']}", ""],
        ["router CRC drops", str(fc["router_crc_drops"]), ""],
        ["data frames sent / retransmitted", f"{pr.get('data_sent', 0)} / {pr.get('retransmissions', 0)}", ""],
        ["ACKs / NACKs sent", f"{pr.get('acks_sent', 0)} / {pr.get('nacks_sent', 0)}", ""],
        ["wire time clean (us)", f"{res.wire_time_clean / US:.1f}", ""],
        ["wire time faulty (us)", f"{res.wire_time_faulty / US:.1f}", ""],
        ["recovery overhead", f"{res.overhead_pct:+.1f}%", ""],
    ]
    return ReportSection(
        "faults",
        "Reliability - coupled run under seeded fabric faults",
        ["quantity", "reproduction", "expected"],
        rows,
    )


def _recovery_section() -> ReportSection:
    from repro.faults import run_crash_recovery_demo

    res = run_crash_recovery_demo()
    hb = res.report.get("heartbeat", {})
    lat = res.detection_latency
    rows = [
        ["crash", f"node {res.crash_node} at t={res.crash_time / 1e-3:.2f} ms", ""],
        ["coupled state bit-exact", str(res.bit_exact), "True"],
        [
            "detection latency (us)",
            f"{lat / US:.0f}" if lat is not None else "-",
            f"<= {(hb.get('timeout', 0) + hb.get('period', 0)) / US:.0f}",
        ],
        ["rank remaps (rank, old, new)", "; ".join(str(m) for m in res.remaps), ""],
        ["rolled back to window", str(res.restored_window), ""],
        ["checkpoint tax (ms)", f"{res.checkpoint_tax / 1e-3:.2f}", ""],
        ["rollback cost (ms)", f"{res.rollback_cost / 1e-3:.2f}", ""],
        ["recompute cost (ms)", f"{res.recompute_cost / 1e-3:.2f}", ""],
        [
            "total crash overhead (ms)",
            f"{res.total_overhead / 1e-3:.2f} "
            f"on a {res.engine_time_clean / 1e-3:.2f} ms run",
            "",
        ],
        [
            "heartbeats sent / heard",
            f"{hb.get('beacons_sent', 0)} / {hb.get('beacons_heard', 0)}",
            "",
        ],
    ]
    return ReportSection(
        "recovery",
        "Self-healing - mid-run node crash, rollback-restart recovery",
        ["quantity", "reproduction", "expected"],
        rows,
    )


def _telemetry_section() -> ReportSection:
    from repro.gcm.ocean import ocean_model
    from repro.obs.metrics import phase_crosscheck

    model = ocean_model(nx=32, ny=16, nz=5, px=2, py=2, dt=1200.0)
    model.runtime.attach_metrics()
    model.run(4)
    rows = []
    for r in phase_crosscheck(model):
        err = r["rel_err"]
        rows.append(
            [
                r["quantity"],
                f"{r['measured_s'] / US:.1f}",
                f"{r['predicted_s'] / US:.1f}",
                f"{err * 100:+.2f}%" if err is not None else "-",
            ]
        )
    return ReportSection(
        "telemetry",
        "Telemetry - measured per-phase times vs cost model (4 steps)",
        ["quantity", "measured us", "predicted us", "rel err"],
        rows,
    )


def _collectives_section() -> ReportSection:
    from repro.collectives import Autotuner
    from repro.hardware.cluster import HyadesCluster

    tuner = Autotuner()
    rows = []
    for size in (8, 1024, 65536):
        plan = tuner.plan("allreduce", 16, size)
        runner_up = sorted(
            (c for a, c in plan.costs.items() if a != plan.algorithm)
        )
        rows.append(
            [
                f"allreduce 16x{size}B",
                plan.algorithm,
                f"{plan.predicted_s / US:.1f}",
                f"{runner_up[0] / US:.1f}" if runner_up else "-",
                "",
            ]
        )
    plan = tuner.plan("allreduce", 16, 8)
    cv = tuner.crossvalidate(plan, HyadesCluster())
    rows.append(
        [
            "DES crossval 16x8B",
            plan.algorithm,
            f"{cv['des_s'] / US:.1f}",
            f"{cv['predicted_s'] / US:.1f}",
            f"{cv['rel_err'] * 100:+.1f}% (|err| <= 10%)",
        ]
    )
    return ReportSection(
        "collectives",
        "Collectives - autotuned algorithm selection (Arctic model)",
        ["case", "winner", "us", "next-best us", "check"],
        rows,
    )


def _service_section() -> ReportSection:
    import tempfile

    from repro.service import (
        JobSpec,
        ServiceClient,
        ServiceConfig,
        SupervisorConfig,
        run_jobs,
    )

    root = tempfile.mkdtemp(prefix="repro-report-service-")
    specs = [
        JobSpec(
            kind="ocean",
            name=f"member-{i}",
            params={
                "nx": 12, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 6,
                "perturb_seed": i, "perturb_amp": 0.01,
            },
        )
        for i in range(3)
    ]
    specs.append(JobSpec(kind="flaky", name="flaky-0", params={"fails_before": 1}))
    specs.append(JobSpec(kind="fail", name="poison-0"))
    config = ServiceConfig(
        supervisor=SupervisorConfig(
            max_workers=2, max_attempts=2, backoff_base_s=0.05, backoff_cap_s=0.2
        )
    )
    _, _, summary = run_jobs(root, specs, config, max_wall_s=60.0)
    digests = sorted(
        f"{s['job_id']}:{s['digest']}"
        for s in ServiceClient(root).status().values()
        if s["status"] == "completed" and s["kind"] == "ocean"
    )
    rows = [
        ["jobs submitted", str(summary["submitted"]), "5"],
        ["completed", str(summary["completed"]), "4"],
        ["quarantined (poison)", str(summary["quarantined"]), "1"],
        ["retries", str(summary["retries"]), ">= 1 (flaky member)"],
        ["shed", str(summary["shed"]), "0"],
        ["scenarios/hour", f"{summary['scenarios_per_hour']:.0f}", ""],
        ["member digests", "; ".join(digests), "deterministic"],
    ]
    return ReportSection(
        "service",
        "Ensemble service - 5-job sweep with retry and quarantine",
        ["quantity", "reproduction", "expected"],
        rows,
    )


def _precision_section() -> ReportSection:
    """Mixed-precision presets (and any persisted tuned config): float32
    cells per site and the static exchange+gsum wire-byte reduction."""
    from repro.precision.report import precision_rows

    return ReportSection(
        "precision",
        "Mixed precision - float32 cells per site and wire-byte reduction",
        ["config", "state", "exch wire", "gsum wire", "cg", "wire bytes"],
        precision_rows(out_dir="benchmarks/out"),
    )


#: Registry of report builders, in paper order.
SECTIONS: dict[str, Callable[[], ReportSection]] = {
    "fig2": _fig2_section,
    "fig7": _fig7_section,
    "fig8": _fig8_section,
    "fig10": _fig10_section,
    "fig11": _fig11_section,
    "fig12": _fig12_section,
    "sec53": _sec53_section,
    "collectives": _collectives_section,
    "telemetry": _telemetry_section,
    "faults": _faults_section,
    "recovery": _recovery_section,
    "service": _service_section,
    "precision": _precision_section,
}


def build_report(keys: Optional[list[str]] = None) -> list[ReportSection]:
    """Build the requested sections (all, by default)."""
    selected = keys or list(SECTIONS)
    unknown = [k for k in selected if k not in SECTIONS]
    if unknown:
        raise KeyError(f"unknown report sections: {unknown}; have {list(SECTIONS)}")
    return [SECTIONS[k]() for k in selected]


def render_report(keys: Optional[list[str]] = None) -> str:
    """Render the requested sections as one text report."""
    return "\n\n".join(s.render() for s in build_report(keys))
