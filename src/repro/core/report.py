"""One-call reproduction report: every paper table, built once.

Each of the seven paper sections (Fig. 2, 7, 8, 10, 11, 12 and
Section 5.3) builds the full table its ``benchmarks/out/`` artefact
holds — ``python -m repro report KEY`` prints that file byte for byte,
and the benchmark of the same figure writes ``section.render()`` — with
the paper's side of every row read from :mod:`repro.core.constants` /
:mod:`repro.network.overheads` and the raw numbers kept beside the
strings (``values`` / ``paper``).  Used by the command-line interface
and by downstream users who want the evaluation as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.core.constants import (
    ATM_PS_PARAMS,
    DS_PARAMS,
    FIG12_PAPER,
    OCN_PS_PARAMS,
    VALIDATION,
)
from repro.core.fits import fit_bandwidth_model, fit_gsum_model
from repro.core.logp import fig2_table
from repro.core.pfpp import comm_terms, fig12_table
from repro.core.sustained import fig10_table
from repro.core.validation import section53_validation
from repro.network.costmodel import (
    ARCTIC_GSUM_MEASURED,
    ARCTIC_GSUM_OFFSET,
    ARCTIC_GSUM_SLOPE,
    ARCTIC_GSUM_SMP_MEASURED,
    TRANSFER_BANDWIDTH,
    TRANSFER_OVERHEAD,
    arctic_cost_model,
)
from repro.parallel.tiling import Decomposition

US = 1e-6
MIN = 60.0


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one aligned-text table formatter (every column left-justified
    to its widest cell, the last one included)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def us(seconds: float, digits: int = 1) -> str:
    """Microseconds."""
    return f"{seconds * 1e6:.{digits}f}"


def mega(per_second: float, digits: int = 1) -> str:
    """MB/s or MFlop/s."""
    return f"{per_second / 1e6:.{digits}f}"


@dataclass
class ReportSection:
    """One reproduced table; a paper section also carries the line under
    its table and the numbers its cells were formatted from."""

    key: str
    title: str
    headers: list[str]
    rows: list[list[str]]
    #: text under the table (the least-squares fit of Fig. 7 / Fig. 8)
    footer: str = ""
    #: raw reproduced numbers, keyed ``(row, quantity)`` or ``quantity``
    values: dict = field(default_factory=dict)
    #: the paper's number under the same key, from the named constants
    paper: dict = field(default_factory=dict)
    #: whether the run behind a demo section did what it demonstrates
    #: (the exit status of the CLI command that prints it)
    ok: bool = True

    def render(self) -> str:
        """The section as text, newline-terminated."""
        return format_table(self.title, self.headers, self.rows) + self.footer


def _fig2_section() -> ReportSection:
    """Seconds, keyed ``(payload bytes, "os" | "or" | "half_rtt" | "latency")``."""
    sec = ReportSection(
        "fig2",
        "Fig. 2 - LogP of PIO message passing: measured (paper), usec",
        ["size (B)", "Os", "Or", "Trt/2", "Lnet"],
        [],
    )
    quantities = ("os", "or", "half_rtt", "latency")
    for r in fig2_table():
        size = r["payload_bytes"]
        for q in quantities:
            sec.values[size, q], sec.paper[size, q] = r[q], r[f"paper_{q}"]
        sec.rows.append(
            [str(size)] + [f"{us(r[q], 2)} ({us(r[f'paper_{q}'])})" for q in quantities]
        )
    return sec


def _fig7_section() -> ReportSection:
    """Bytes/s keyed ``(block bytes, "des" | "model")`` over the whole
    x-axis of Fig. 7 (the DES moves VI blocks of 64 B and up), plus the
    two constants of ``bw(s) = s / (fit_overhead + s / fit_bandwidth)``."""
    from repro.parallel.des_collectives import des_transfer_bandwidth

    model = arctic_cost_model()
    sizes = [2 ** k for k in range(2, 18)]
    des = {s: des_transfer_bandwidth(s) for s in sizes if s >= 64}
    overhead, bandwidth = fit_bandwidth_model({s: s / bw for s, bw in des.items()})
    sec = ReportSection(
        "fig7",
        "Fig. 7 - exchange transfer bandwidth vs block size",
        ["block (B)", "DES measured (MB/s)", "analytic model (MB/s)"],
        [],
        footer="least-squares fit of the DES points: bw(s) = s / "
        f"({us(overhead, 2)} us + s / {mega(bandwidth)} MB/s); the paper's curve: "
        f"{us(TRANSFER_OVERHEAD)} us, {mega(TRANSFER_BANDWIDTH, 0)} MB/s\n",
        values={"fit_overhead": overhead, "fit_bandwidth": bandwidth},
        paper={"fit_overhead": TRANSFER_OVERHEAD, "fit_bandwidth": TRANSFER_BANDWIDTH},
    )
    for s in sizes:
        analytic = sec.values[s, "model"] = model.perceived_bandwidth(s)
        if s in des:
            sec.values[s, "des"] = des[s]
        sec.rows.append([str(s), mega(des[s]) if s in des else "-", mega(analytic)])
    return sec


def _fig8_section() -> ReportSection:
    """Seconds keyed ``(N, "des" | "fit" | "smp")`` — the DES butterfly,
    the least-squares line through the four DES points (the paper's
    methodology) and the 2xN mix-mode model — plus the line itself."""
    from repro.collectives.des_exec import des_time_schedule
    from repro.collectives.schedules import allreduce_butterfly
    from repro.hardware.cluster import HyadesCluster

    model = arctic_cost_model()
    des = {
        n: des_time_schedule(HyadesCluster(), allreduce_butterfly(n, 8))
        for n in (2, 4, 8, 16)
    }
    fit = fit_gsum_model(des)
    slope, offset = ARCTIC_GSUM_SLOPE, ARCTIC_GSUM_OFFSET
    sec = ReportSection(
        "fig8",
        "Section 4.2 - global sum latencies (usec)",
        ["config", "DES", "paper", "DES fit", "paper fit", "2xN model", "2xN paper"],
        [],
        footer="least-squares fit of the DES points: tgsum = "
        f"{us(fit.slope, 2)} log2 N {fit.offset * 1e6:+.2f} us; the paper's: "
        f"{us(slope, 2)} log2 N {'-' if offset < 0 else '+'} {us(abs(offset), 2)} us\n",
        values={"fit_slope": fit.slope, "fit_offset": fit.offset},
        paper={"fit_slope": slope, "fit_offset": offset},
    )
    v, p = sec.values, sec.paper
    for n, k in zip(des, (1, 2, 3, 4)):  # k = log2 n
        v[n, "des"], p[n, "des"] = des[n], ARCTIC_GSUM_MEASURED[n]
        v[n, "fit"], p[n, "fit"] = fit(k), slope * k + offset
        v[n, "smp"], p[n, "smp"] = model.gsum_time(n, smp=True), ARCTIC_GSUM_SMP_MEASURED[n]
        cells = [us(x[n, q], d) for q, d in (("des", 1), ("fit", 2), ("smp", 1)) for x in (v, p)]
        sec.rows.append([f"{n}-way"] + cells)  # ours then the paper's, per quantity
    return sec


def _fig10_section() -> ReportSection:
    """GFlop/s keyed ``(machine, CPUs)``; the paper column exists for
    the two Hyades rows only (``HYADES_*_SUSTAINED``)."""
    sec = ReportSection(
        "fig10",
        "Fig. 10 - sustained GFlop/s, ocean isomorph (coarse resolution)",
        ["machine", "CPUs", "GFlop/s", "paper", "source"],
        [],
    )
    for r in fig10_table():
        row = r["machine"], r["processors"]
        ours = sec.values[row] = r["sustained_gflops"]
        paper = "-"
        if "paper_gflops" in r:
            sec.paper[row] = r["paper_gflops"]
            paper = f"{r['paper_gflops']:.3f}"
        sec.rows.append([row[0], str(row[1]), f"{ours:.3f}", paper, r["source"]])
    return sec


def _fig11_section() -> ReportSection:
    """Flop counts and seconds keyed by quantity: ``nps`` (flops/cell/PS
    pass) and ``nds`` (flops/column/iteration) counted from two steps of
    a real atmosphere at the reference lateral grid, the four
    communication times from the cost model on the production mapping
    (16 ranks mix-mode, DS and the 2x8 global sum on the eight masters)."""
    from repro.gcm.atmosphere import atmosphere_model

    cm = arctic_cost_model()
    ps = Decomposition(128, 64, 4, 4, olx=3)
    ds = Decomposition(128, 64, 2, 4, olx=1)
    hyades = dict(ds_decomp=ds, mixmode=True)
    tgsum, texchxy, t3_atm, _ = comm_terms(cm, ps, 10, **hyades)
    t3_ocn = comm_terms(cm, ps, 30, **hyades).texchxyz
    counted = atmosphere_model(nx=64, ny=32, nz=10, px=2, py=2, dt=200.0)
    counted.run(2)
    h, cols = counted.history[-1], 64 * 32
    nps, nds = h.flops_ps / (cols * 10), h.flops_ds / max(h.ni, 1) / cols
    atm, ocn, dsp = ATM_PS_PARAMS, OCN_PS_PARAMS, DS_PARAMS

    def share(decomp, *extent):  # e.g. "5120 (128x64x10 / 16)"
        n = math.prod(extent) // decomp.n_ranks
        return f"{n} ({'x'.join(map(str, extent))} / {decomp.n_ranks})"

    grid = ps.nx, ps.ny
    return ReportSection(
        "fig11",
        "Fig. 11 - performance model parameters: reproduction vs paper",
        ["parameter", "reproduction", "paper"],
        [
            ["Nps (atmos, flops/cell)", f"{nps:.0f} (counted)", f"{atm.nps}"],
            ["nxyz (atmos)", share(ps, *grid, 10), f"{atm.nxyz}"],
            ["texchxyz atmos (us)", us(t3_atm), us(atm.texchxyz)],
            ["Fps (MFlop/s)", f"{mega(atm.fps, 0)} (adopted)", mega(atm.fps, 0)],
            ["nxyz (ocean)", share(ps, *grid, 30), f"{ocn.nxyz}"],
            ["texchxyz ocean (us)", us(t3_ocn), us(ocn.texchxyz)],
            ["Nds (flops/col/iter)", f"{nds:.0f} (counted)", f"{dsp.nds}"],
            ["nxy (per master)", share(ds, *grid), f"{dsp.nxy}"],
            ["tgsum 2x8-way (us)", us(tgsum), us(dsp.tgsum)],
            ["texchxy (us)", us(texchxy), us(dsp.texchxy)],
            ["Fds (MFlop/s)", f"{mega(dsp.fds, 0)} (adopted)", mega(dsp.fds, 0)],
        ],
        values={
            "nps": nps, "nds": nds, "texchxyz_atm": t3_atm,
            "texchxyz_ocn": t3_ocn, "texchxy": texchxy, "tgsum": tgsum,
        },
        paper={
            "nps": atm.nps, "nds": dsp.nds, "texchxyz_atm": atm.texchxyz,
            "texchxyz_ocn": ocn.texchxyz, "texchxy": dsp.texchxy, "tgsum": dsp.tgsum,
        },
    )


def _fig12_section() -> ReportSection:
    """Seconds and flop/s keyed ``(interconnect, field of PfppRow)``."""
    sec = ReportSection(
        "fig12",
        "Fig. 12 - PFPP at 2.8125 deg on 16 CPUs / 8 SMPs: model (paper), usec & MFlop/s",
        ["interconnect", "tgsum", "texchxy", "texchxyz", "Pfpp,ps", "Pfpp,ds"],
        [],
    )
    v, p = sec.values, sec.paper
    for r in fig12_table(from_models=True):
        name = r.name
        for q, ref in FIG12_PAPER[name].items():
            v[name, q], p[name, q] = getattr(r, q), ref
        sec.rows.append(
            [name]
            + [f"{us(v[name, q])} ({us(p[name, q])})" for q in ("tgsum", "texchxy", "texchxyz")]
            + [
                f"{mega(v[name, 'pfpp_ps'])} ({mega(p[name, 'pfpp_ps'], 0)})",
                f"{mega(v[name, 'pfpp_ds'], 2)} ({mega(p[name, 'pfpp_ds'])})",
            ]
        )
    sec.rows.append(
        ["(Fps, Fds)", "-", "-", "-", mega(ATM_PS_PARAMS.fps, 0), mega(DS_PARAMS.fds, 0)]
    )
    return sec


def _sec53_section() -> ReportSection:
    """Seconds (and the relative error) keyed by quantity."""
    rep, ref = section53_validation(), VALIDATION
    quantities = ("tcomm", "tcomp", "predicted_total", "observed", "relative_error")
    v = {q: getattr(rep, q) for q in quantities}
    predicted, observed = ref.predicted_tcomm + ref.predicted_tcomp, ref.observed_wallclock
    p = {
        "tcomm": ref.predicted_tcomm, "tcomp": ref.predicted_tcomp, "predicted_total": predicted,
        "observed": observed, "relative_error": (predicted - observed) / observed,
    }
    minutes = (  # label, quantity, digits printed of ours and of the paper's
        ("Tcomm (min)", "tcomm", 1, 1),
        ("Tcomp (min)", "tcomp", 1, 0),
        ("predicted total (min)", "predicted_total", 0, 0),
        ("observed wall-clock (min)", "observed", 0, 0),
    )
    rows = [[label, f"{v[q] / MIN:.{d}f}", f"{p[q] / MIN:.{dp}f}"] for label, q, d, dp in minutes]
    error = f"{v['relative_error'] * 100:+.1f}%", f"~{p['relative_error'] * 100:.0f}%"
    return ReportSection(
        "sec53",
        f"Section 5.3 - one-year atmosphere run (Nt={ref.nt}, Ni={ref.ni})",
        ["quantity", "reproduction", "paper"],
        rows + [["model error", *error]],
        values=v,
        paper=p,
    )


def _faults_section(
    seed: int = 7,
    drop: float = 0.01,
    corrupt: float = 0.002,
    windows: int = 1,
    reliable: bool = True,
    links: bool = False,
) -> ReportSection:
    """Without retransmits (``reliable=False``) the run is expected to
    deadlock; the watchdog's diagnostic is the text under the table."""
    from repro.faults import run_coupled_fault_demo

    res = run_coupled_fault_demo(
        seed=seed, drop=drop, corrupt=corrupt, windows=windows, reliable=reliable
    )
    fc, pr = res.fault_counters, res.protocol
    rows = [
        ["fault plan", f"seed={res.plan.seed} drop={res.plan.drop_prob:.1%} corrupt={res.plan.corrupt_prob:.1%}", ""],
        ["coupled state bit-exact", str(res.bit_exact), "True" if reliable else "False"],
        ["injected drops / corruptions", f"{fc['injected_drops']} / {fc['injected_corruptions']}", ""],
        ["router CRC drops", str(fc["router_crc_drops"]), ""],
    ]
    footer = ""
    if res.deadlock is not None:
        rows.append(["exchange", "deadlocked (watchdog diagnostic below)", "deadlock"])
        footer = f"watchdog: {res.deadlock}\n"
    else:
        rows += [
            ["data frames sent / retransmitted", f"{pr.get('data_sent', 0)} / {pr.get('retransmissions', 0)}", ""],
            ["ACKs / NACKs sent", f"{pr.get('acks_sent', 0)} / {pr.get('nacks_sent', 0)}", ""],
            ["wire time clean (us)", f"{res.wire_time_clean / US:.1f}", ""],
            ["wire time faulty (us)", f"{res.wire_time_faulty / US:.1f}", ""],
            ["recovery overhead", f"{res.overhead_pct:+.1f}%", ""],
        ]
    if links:
        rows += [[f"{name} drops / corruptions", f"{d} / {c}", ""] for name, d, c in res.per_link]
    return ReportSection(
        "faults",
        "Reliability - coupled run under seeded fabric faults",
        ["quantity", "reproduction", "expected"],
        rows,
        footer=footer,
        ok=res.bit_exact or res.deadlock is not None,
    )


def _recovery_section(
    crash_node: int = 1,
    crash_time: Optional[float] = None,
    extra_crashes: tuple = (),
    windows: int = 3,
    recover: bool = True,
    reliable: bool = True,
) -> ReportSection:
    """A run that dies shows its structured error (the watchdog's
    diagnostic on raw VI) under the table; without ``recover`` that
    death is the demonstration."""
    from repro.faults import run_crash_recovery_demo

    res = run_crash_recovery_demo(
        crash_node=crash_node, crash_time=crash_time, extra_crashes=extra_crashes,
        windows=windows, recover=recover, reliable=reliable,
    )
    more = f" (+{len(extra_crashes)} more)" if extra_crashes else ""
    crash = ["crash", f"node {res.crash_node} at t={res.crash_time / 1e-3:.2f} ms{more}", ""]
    title = "Self-healing - mid-run node crash, rollback-restart recovery"
    headers = ["quantity", "reproduction", "expected"]
    if res.error is not None:
        expected = "none" if recover else "DeliveryError" if reliable else "DeadlockError"
        return ReportSection(
            "recovery", title, headers,
            [crash, ["structured error", res.error_type, expected]],
            footer=f"{res.error_type}: {res.error}\n",
            ok=not recover,
        )
    hb = res.report.get("heartbeat", {})
    lat = res.detection_latency
    rows = [
        crash,
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
    return ReportSection("recovery", title, headers, rows, ok=res.bit_exact)


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


def _service_section(root=None, config=None, max_wall_s: Optional[float] = 60.0) -> ReportSection:
    """The sweep on a fresh temp directory unless ``root`` is given;
    ``config`` defaults to 2 workers, 2 attempts and a short backoff."""
    import tempfile

    from repro.service import (
        JobSpec,
        ServiceClient,
        ServiceConfig,
        SupervisorConfig,
        run_jobs,
    )

    root = root or tempfile.mkdtemp(prefix="repro-report-service-")
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
    config = config or ServiceConfig(
        supervisor=SupervisorConfig(
            max_workers=2, max_attempts=2, backoff_base_s=0.05, backoff_cap_s=0.2
        )
    )
    _, _, summary = run_jobs(root, specs, config, max_wall_s=max_wall_s)
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
        ok=summary["completed"] == 4 and summary["quarantined"] == 1,
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


#: Registry of report builders, in paper order.  Called with no
#: arguments each builds the report's table; the demo sections take the
#: CLI's inputs as keyword parameters.
SECTIONS: dict[str, Callable[..., ReportSection]] = {
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
    return "\n".join(s.render() for s in build_report(keys))
