"""Command-line interface; ``python -m repro [COMMAND] --help`` describes each command and flag."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

#: Mirror of :data:`repro.backend.BACKEND_NAMES` (kept literal so the
#: parser builds without importing the runtime).
_BACKEND_CHOICES = ("des", "analytic", "hybrid")


def _stray(args: argparse.Namespace, mode: str, *dests: str) -> bool:
    """True, after one line on stderr naming ``mode``, when a flag in
    ``dests`` is set away from its default outside the mode it needs."""
    for dest in dests:
        if getattr(args, dest) != args.subparser.get_default(dest):
            flag = "--" + dest.replace("_", "-")
            print(f"{args.command}: {flag} needs {mode}", file=sys.stderr)
            return True
    return False


def _table(title: str, headers, rows) -> None:
    """Print one aligned table (:func:`repro.core.report.format_table`)."""
    from repro.core.report import format_table

    print(format_table(title, headers, rows), end="")


def _show(section) -> int:
    """Print a report section; its run's outcome is the exit status."""
    print(section.render(), end="")
    return 0 if section.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import render_report

    keys = args.sections or None
    try:
        print(render_report(keys), end="")
    except KeyError as e:
        print(e, file=sys.stderr)
        return 2
    return 0


def _cmd_backend(args: argparse.Namespace) -> int:
    """Backend gate: cross-validation, large-N sweep, or tier info."""
    import json

    from repro.backend import large_sweep, resolve_backend, run_crossval
    from repro.core.report import mega, us

    if not args.sweep and _stray(args, "--sweep", "nodes", "backend"):
        return 2
    if args.crossval:
        report = run_crossval()
        _table(
            f"backend cross-validation: {report['n_checks']} checks, "
            f"band <= {report['tolerance']:.0%} of DES",
            ["workload", "quantity", "des (us)", "analytic (us)", "hybrid (us)", "err_a", "err_h"],
            (
                [c["workload"], c["quantity"], us(c["des_s"], 2), us(c["analytic_s"], 2),
                 us(c["hybrid_s"], 2), f"{c['err_analytic']:.2%}", f"{c['err_hybrid']:.2%}"]
                for c in report["checks"]
            ),
        )
        print(f"max relative error: {report['max_rel_err']:.2%} (band {report['tolerance']:.0%})")
        print("GCM state digests: " + (
            "bit-exact across des/analytic/hybrid" if report["bit_exact"]
            else f"DIVERGED: {report['digests']}"
        ))
        print("crossval: " + ("PASSED" if report["passed"] else "FAILED"))
    elif args.sweep:
        report = large_sweep(args.nodes, backend=args.backend or "analytic")
        tnx, tny = report["tile"]
        _table(
            f"Fig. 11-style weak-scaling sweep on the {report['backend']} tier "
            f"(tile {tnx}x{tny}x{report['nz']} per processor)",
            ["N", "grid", "tgsum (us)", "texchxy (us)", "texchxyz (us)",
             "Pfpp,ps (MFlop/s)", "Pfpp,ds (MFlop/s)"],
            (
                [r["n_nodes"], "x".join(map(str, r["grid"])), us(r["tgsum_s"]), us(r["texchxy_s"]),
                 us(r["texchxyz_s"]), mega(r["pfpp_ps_flops"]), mega(r["pfpp_ds_flops"])]
                for r in report["rows"]
            ),
        )
    else:
        if _stray(args, "--crossval or --sweep", "json"):
            return 2
        _table(
            "Communication backend tiers",
            ["tier", "describe()"],
            ([name, json.dumps(resolve_backend(name).describe(), sort_keys=True, default=str)]
             for name in _BACKEND_CHOICES),
        )
        return 0
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if report.get("passed", True) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.gcm import diagnostics as diag
    from repro.gcm.ocean import ocean_model

    model = ocean_model(nx=args.nx, ny=args.ny, nz=args.nz, px=args.px, py=args.py, dt=args.dt)
    every = max(args.steps // 8, 1)
    rows = []
    for k in range(1, args.steps + 1):
        s = model.step()
        if k % every == 0:
            ke, cfl = diag.total_kinetic_energy(model), diag.max_cfl(model)
            rows.append([k, s.ni, f"{ke:.3e}", f"{cfl:.3f}"])
    _table(
        f"ocean {args.nx}x{args.ny}x{args.nz} on {model.decomp.n_ranks} ranks; "
        f"{args.steps} steps of dt={args.dt}s",
        ["step", "Ni", "KE", "CFL"],
        rows,
    )
    if not diag.is_finite(model):
        print("model state went non-finite", file=sys.stderr)
        return 1
    summ = model.runtime.summary()
    print(f"virtual elapsed {summ['elapsed'] * 1e3:.1f} ms; sustained "
          f"{summ['sustained_flops'] / 1e6:.1f} MFlop/s")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Traced coupled demo run -> Chrome trace JSON + telemetry summary."""
    from repro.obs.capture import save_trace, traced_coupled_run

    result = traced_coupled_run(windows=args.windows)
    save_trace(result, args.out)
    tr = result["tracer"]
    _table(
        f"wrote {args.out}: {tr.n_events} events ({tr.dropped} dropped past the cap)",
        ["category", "events"],
        sorted(tr.category_counts().items()),
    )
    print(f"engine: {result['engine_events']} DES events, "
          f"{result['engine_time_s'] * 1e3:.3f} ms virtual; "
          f"coupler wire time {result['des_elapsed_s'] * 1e6:.1f} us")
    _table(
        f"BSP phases of {args.windows} coupling window(s), virtual ms",
        ["phase", "compute", "exchange", "gsum", "exchanges", "gsums"],
        (
            [f"{comp}/{phase}"]
            + [f"{tot[q] * 1e3:.2f}" for q in ("compute_s", "exchange_s", "gsum_s")]
            + [tot["n_exchanges"], tot["n_gsums"]]
            for comp in ("atm", "ocn")
            for phase, tot in sorted(result[f"{comp}_metrics"].totals().items())
        ),
    )
    return 0


def _cmd_century(_args: argparse.Namespace) -> int:
    """The Section 6 projection: a century-long coupled run."""
    from repro.core.validation import section53_validation

    year = section53_validation().predicted_total
    _table(
        "Section 6 - a century-long synchronous coupled run",
        ["span", "projected wall-clock"],
        [
            ["one model year (2.8125 deg atmosphere)", f"{year / 60:.0f} minutes"],
            ["a century", f"{100 * year / 86400:.1f} days"],
        ],
    )
    print('paper, Section 6: "a century long synchronous climate simulation ...')
    print(' can be completed within a two week period."')
    return 0


def _parse_crash(spec: str) -> tuple:
    """Parse a ``--crash`` spec: ``NODE@TIME``, ``NODE@auto`` or ``NODE``."""
    node, _, when = spec.partition("@")
    try:
        return int(node), (None if when in ("", "auto") else float(when))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected NODE@TIME (e.g. '1@0.004' or '1@auto'), got {spec!r}"
        ) from exc


def _cmd_faults(args: argparse.Namespace) -> int:
    """Coupled run under a seeded fault plan, or a mid-run node crash."""
    from repro.core.report import SECTIONS

    reliable = not args.no_retry
    if not args.crash:
        if _stray(args, "--crash", "recover"):
            return 2
        return _show(SECTIONS["faults"](
            seed=args.seed, drop=args.drop, corrupt=args.corrupt,
            windows=args.windows, reliable=reliable, links=args.links,
        ))
    if _stray(args, "a fault plan (no --crash)", "seed", "drop", "corrupt", "links"):
        return 2
    (node, when), extra = args.crash[0], tuple(args.crash[1:])
    return _show(SECTIONS["recovery"](
        crash_node=node, crash_time=when, extra_crashes=extra,
        windows=args.windows, recover=args.recover, reliable=reliable,
    ))


def _cmd_pfpp(args: argparse.Namespace) -> int:
    """Fig. 12 (plus the autotuned-gsum ceiling), or the scoreboard."""
    from repro.core.report import SECTIONS, mega, us

    if args.topology:
        return _pfpp_topology_scoreboard(args)
    if _stray(args, "--topology", "nodes", "crossval", "precision", "out"):
        return 2
    print(SECTIONS["fig12"]().render(), end="")
    if args.best_collectives:
        from repro.core.pfpp import best_collectives_table

        print()
        _table(
            "PFPP under best-known collective (autotuned Arctic gsum)",
            ["N", "gsum alg", "tgsum (us)", "Pfpp,ps (MFlop/s)", "Pfpp,ds (MFlop/s)"],
            (
                [b.n_nodes, b.gsum_algorithm, us(b.tgsum), mega(b.pfpp_ps), mega(b.pfpp_ds, 2)]
                for b in best_collectives_table()
            ),
        )
    return 0


def _pfpp_topology_scoreboard(args: argparse.Namespace) -> int:
    """``repro pfpp --topology NAME|all``: the cross-architecture
    PFPP scoreboard (analytic tier), optionally DES-cross-validated.

    With ``--precision wire32|tuned`` the all64 baseline rows are
    followed by mixed-precision rows whose exchange/gsum payloads are
    priced at the config's wire itemsizes.  ``tuned`` loads what a
    previous ``repro tune-precision`` persisted under ``--out``, and
    falls back to the ``wire32`` preset (saying so) when there is none."""
    from repro.core.pfpp import topology_scoreboard
    from repro.core.report import mega, us
    from repro.network.topology import (
        SCOREBOARD_TOPOLOGIES,
        crossvalidate_topology,
        make_topology,
    )
    from repro.precision import PrecisionConfig
    from repro.precision.search import load_tuned_config

    if _stray(args, "the Fig. 12 summary (no --topology)", "best_collectives"):
        return 2
    if args.precision != "tuned" and _stray(args, "--precision tuned", "out"):
        return 2
    spec = args.topology.lower()
    names = SCOREBOARD_TOPOLOGIES if spec == "all" else (spec,)
    n_values = tuple(args.nodes)
    rows = list(topology_scoreboard(topologies=names, n_values=n_values))
    precision = args.precision
    config = load_tuned_config(args.out) if precision == "tuned" else PrecisionConfig.preset(precision)
    if config is None:
        print("note: no tuned config found (run `repro tune-precision` first); "
              "falling back to the wire32 preset")
        config, precision = PrecisionConfig.preset("wire32"), "wire32"
    wide = precision != "all64"
    if wide:
        rows += topology_scoreboard(
            topologies=names, n_values=n_values, precision=precision,
            **config.scoreboard_args(),
        )
    _table(
        "Cross-architecture PFPP scoreboard (analytic tier)",
        ["N", "topology", "grid", "gsum alg", "tgsum (us)", "texchxy (us)", "texchxyz (us)",
         "Pfpp,ps (MFlop/s)", "Pfpp,ds (MFlop/s)", "hops", "bisection (GB/s)"]
        + (["precision"] if wide else []),
        (
            [r.n_nodes, r.topology, f"{r.grid[0]}x{r.grid[1]}", r.gsum_algorithm,
             us(r.tgsum), us(r.texchxy), us(r.texchxyz), mega(r.pfpp_ps), mega(r.pfpp_ds, 2),
             r.max_hops, f"{r.bisection_bandwidth / 1e9:.1f}"]
            + ([r.precision] if wide else [])
            for r in rows
        ),
    )
    print("(Pfpp = interconnect ceiling of eqs. 14-15, global grid weak-scaled past N=256)")
    if wide:
        print(
            "(mixed-precision rows price exchange payloads at the wire "
            "itemsize; DES gsum and the shared-Ethernet mpi-fit gsum are "
            "byte-insensitive — see docs/precision.md)"
        )
    if not args.crossval:
        return 0
    checks = [crossvalidate_topology(make_topology(name, 16)) for name in names]
    ok = all(r["rel_err"] <= 0.10 for r in checks)
    print()
    _table(
        "DES cross-validation at N=16 (pairwise stream per topology)",
        ["topology", "des (us)", "model (us)", "err"],
        ([r["topology"], us(r["des_s"], 2), us(r["predicted_s"], 2), f"{r['rel_err']:.2%}"]
         for r in checks),
    )
    print(f"cross-validation {'PASS' if ok else 'FAIL'} (gate: <=10%)")
    return 0 if ok else 1


def _cmd_collectives(args: argparse.Namespace) -> int:
    """Autotuned collective plans: single plan, size sweep, DES check."""
    from repro.collectives import Autotuner, cost_table
    from repro.core.report import us

    tuner = Autotuner()
    if args.sweep:
        if _stray(args, "a single plan (no --sweep)", "nbytes", "priority", "crossval"):
            return 2
        sizes = [8, 64, 1024, 8192, 65536, 524288]
        for n in args.nodes:
            table = cost_table(args.op, n, sizes)
            algs = sorted(table)
            rows = []
            for i, size in enumerate(sizes):
                best = tuner.plan(args.op, n, size).algorithm
                rows.append([size] + [us(table[a][i]) + ("*" if a == best else "") for a in algs])
            _table(f"{args.op} at N={n} (us per collective; * = tuner's pick)", ["bytes", *algs], rows)
        return 0
    plan = tuner.plan(args.op, args.nodes[0], args.nbytes, priority=args.priority)
    _table(
        f"{plan.op} N={plan.n} {plan.nbytes}B [{plan.priority.name}]: "
        f"{plan.algorithm} ({plan.n_rounds} rounds, "
        f"{plan.total_messages} messages, {us(plan.predicted_s)} us)",
        ["pick", "algorithm", "us"],
        (
            ["*" if alg == plan.algorithm else "", alg, us(cost)]
            for alg, cost in sorted(plan.costs.items(), key=lambda kv: kv[1])
        ),
    )
    if args.crossval:
        if plan.n > 16:
            print("crossval: skipped (DES check limited to N<=16)", file=sys.stderr)
            return 2
        cv = tuner.crossvalidate(plan)
        print(f"DES replay: {us(cv['des_s'])} us "
              f"(model {us(cv['predicted_s'])} us, error {cv['rel_err']:.1%})")
    return 0


def _service_config(args: argparse.Namespace):
    from repro.service import ServiceConfig, SupervisorConfig

    return ServiceConfig(SupervisorConfig(
        max_workers=args.workers, heartbeat_timeout_s=args.heartbeat_timeout,
        deadline_s=args.deadline, max_attempts=args.max_attempts,
    ))


def _cmd_service(args: argparse.Namespace) -> int:
    """Ensemble service: demo sweep, serving loop, or chaos campaign."""
    import pathlib
    import tempfile

    if not args.serve and _stray(args, "--serve", "drain"):
        return 2
    if not args.chaos and _stray(args, "--chaos", "seed", "jobs"):
        return 2
    if args.chaos:
        from repro.service import ChaosConfig, run_chaos

        root = pathlib.Path(args.dir or tempfile.mkdtemp(prefix="repro-chaos-"))
        cfg = ChaosConfig(
            seed=args.seed, n_jobs=args.jobs, workers=args.workers,
            max_wall_s=args.max_wall if args.max_wall is not None else 120.0,
            heartbeat_timeout_s=args.heartbeat_timeout, deadline_s=args.deadline,
            max_attempts=args.max_attempts,
        )
        print(f"chaos campaign in {root}")
        report = run_chaos(root, cfg, echo=print)
        print(report.render())
        return 0 if report.ok else 1

    if args.serve:
        if not args.dir:
            print("service: --serve needs --dir", file=sys.stderr)
            return 2
        from repro.service import EnsembleService

        service = EnsembleService(args.dir, _service_config(args))
        found = service.startup()
        print(
            f"service up on {args.dir}: replayed {found['records']} journal "
            f"records, killed {found['orphans_killed']} orphan workers, "
            f"adopted {found['completions_adopted']} completions, "
            f"requeued {found['requeued']} jobs"
        )
        summary = service.serve(drain=args.drain, max_wall_s=args.max_wall)
        print(
            f"served: {summary['completed']} completed, "
            f"{summary['quarantined']} quarantined, {summary['shed']} shed, "
            f"{summary['retries']} retries, {summary['worker_kills']} worker "
            f"kills ({summary['scenarios_per_hour']:.0f} scenarios/hour)"
        )
        return 0

    from repro.core.report import SECTIONS

    return _show(SECTIONS["service"](
        root=args.dir, config=_service_config(args), max_wall_s=args.max_wall
    ))


def _batch_root(args: argparse.Namespace, prefix: str, what: str):
    """Where a candidate batch runs: the service root (``--dir`` or a
    fresh temp directory), or ``None`` for ``--in-process``."""
    import pathlib
    import tempfile

    if args.in_process:
        return None
    root = pathlib.Path(args.dir or tempfile.mkdtemp(prefix=prefix))
    print(f"{what} via ensemble service in {root}")
    return root


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Systematic fault campaign: sweep kind x magnitude x tier, audit."""
    import pathlib

    from repro.faults.campaign import run_campaign

    scorecard = run_campaign(
        out_dir=pathlib.Path(args.out),
        root=_batch_root(args, "repro-campaign-", "fault campaign"),
        smoke=args.smoke,
        tiers=args.tiers.split(",") if args.tiers else None,
        max_workers=args.workers,
    )
    _table(
        f"campaign: {scorecard['n_pass']}/{scorecard['n_scenarios']} scenarios pass, "
        f"max tier error {scorecard['max_tier_error']:.2%} (band {scorecard['tier_band']:.0%})",
        ["passing scenario", "slowdown", "bound", "moves"],
        (
            [row["scenario_id"], f"{row['slowdown_ratio']:.2f}x",
             f"{row['slowdown_bound']:.2f}x", row["moves"]]
            for row in scorecard["scenarios"]
            if row.get("ok")
        ),
    )
    for failure in scorecard["failures"]:
        print(f"FAIL {failure['scenario']}: {failure['audit']} {failure['detail']}")
    print(f"scorecard in {pathlib.Path(args.out) / 'BENCH_campaign.json'}")
    return 0 if scorecard["ok"] else 1


def _cmd_tune_precision(args: argparse.Namespace) -> int:
    """Accuracy-gated mixed-precision search (Precimonious-style ddmin)."""
    import pathlib

    from repro.precision.report import format_search_result
    from repro.precision.search import TUNED_CONFIG_NAME, tune_precision

    result = tune_precision(
        smoke=args.smoke,
        service_root=_batch_root(args, "repro-precision-", "candidate evaluation"),
        max_workers=args.workers,
        out_dir=pathlib.Path(args.out),
    )
    print(format_search_result(result))
    print(f"tuned config in {pathlib.Path(args.out) / TUNED_CONFIG_NAME}")
    return 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'99 'Personal Supercomputer for Climate Research' reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate the headline paper tables")
    p.add_argument(
        "sections", nargs="*",
        help="fig2 fig7 fig8 fig10 fig11 fig12 sec53 collectives telemetry "
        "faults recovery service precision",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trace", help="traced coupled demo -> Chrome trace-event JSON")
    p.add_argument("out", help="output path for the trace JSON")
    p.add_argument("--windows", type=int, default=1, help="coupling windows to trace")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("run", help="short ocean integration")
    for flag, default in (("nx", 64), ("ny", 32), ("nz", 8), ("px", 2), ("py", 2)):
        p.add_argument(f"--{flag}", type=int, default=default)
    p.add_argument("--dt", type=float, default=1200.0)
    p.add_argument("--steps", type=int, default=24)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("backend", help="fidelity-switchable communication backend tools")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--crossval", action="store_true",
        help="run the des/analytic/hybrid cross-validation gate "
        "(fig02/fig08/fig09 workloads; exit 1 outside the 5%% band)",
    )
    mode.add_argument(
        "--sweep", action="store_true",
        help="Fig. 11-style large-N Pfpp sweep on the --backend tier",
    )
    p.add_argument(
        "--nodes", type=int, nargs="+", default=[16, 64, 256, 1024, 4096],
        help="processor counts for --sweep (default: 16 64 256 1024 4096)",
    )
    p.add_argument("--json", help="also write the --crossval / --sweep report JSON")
    p.add_argument(
        "--backend", choices=_BACKEND_CHOICES,
        help="communication fidelity tier of --sweep (default: analytic; see docs/backends.md)",
    )
    p.set_defaults(func=_cmd_backend)

    p = sub.add_parser("faults", help="coupled run under seeded fabric faults (reliability demo)")
    p.add_argument("--seed", type=int, default=0, help="fault-plan RNG seed")
    p.add_argument("--drop", type=float, default=0.01, help="per-packet drop probability")
    p.add_argument("--corrupt", type=float, default=0.0, help="per-packet corruption probability")
    p.add_argument("--windows", type=int, default=2, help="coupling windows")
    p.add_argument(
        "--no-retry", action="store_true",
        help="disable retransmits: the plan deadlocks the raw exchange "
        "and the watchdog names the blocked ranks",
    )
    p.add_argument("--links", action="store_true", help="add per-link fault counters")
    p.add_argument(
        "--crash", action="append", type=_parse_crash, default=[], metavar="NODE@TIME",
        help="fail-stop NODE at virtual TIME seconds ('auto' = mid-run); "
        "repeatable — a second crash can exhaust the spare pool",
    )
    p.add_argument(
        "--recover", action=argparse.BooleanOptionalAction, default=True,
        help="self-heal crashes via checkpoint rollback (--no-recover "
        "shows the structured failure instead)",
    )
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("pfpp", help="interconnect PFPP summary (Fig. 12)")
    p.add_argument(
        "--best-collectives", action="store_true",
        help="extend with the autotuned-collective PFPP at N=16/64/256",
    )
    p.add_argument(
        "--topology", metavar="NAME|all",
        help="cross-architecture PFPP scoreboard: one registered "
        "topology (fattree, torus2d, torus3d, mesh2d, hypercrossbar, "
        "ethernet) or 'all'",
    )
    p.add_argument(
        "--nodes", type=int, nargs="+", default=[256, 1024, 4096],
        help="with --topology: processor counts (default: 256 1024 4096)",
    )
    p.add_argument(
        "--crossval", action="store_true",
        help="with --topology: also DES-cross-validate each fabric at N=16 (gate: <=10%%)",
    )
    p.add_argument(
        "--precision", choices=["all64", "wire32", "tuned"], default="all64",
        help="with --topology: add scoreboard rows with exchange/gsum "
        "payloads priced at the preset's (or the tuned config's) wire "
        "itemsizes",
    )
    p.add_argument(
        "--out", default="benchmarks/out",
        help="with --precision tuned: directory holding PRECISION_tuned.json",
    )
    p.set_defaults(func=_cmd_pfpp)

    p = sub.add_parser("collectives", help="autotuned collective plans over the Arctic fabric")
    p.add_argument(
        "--op", default="allreduce",
        choices=["allreduce", "broadcast", "allgather", "reduce_scatter", "alltoall", "barrier"],
    )
    p.add_argument(
        "--nodes", type=int, nargs="+", default=[16],
        help="rank counts (first one used outside --sweep)",
    )
    p.add_argument("--nbytes", type=int, default=8, help="payload bytes")
    p.add_argument(
        "--priority", default="low", choices=["high", "low"],
        help="traffic class: high = fewest rounds, low = cheapest time",
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="cost table across message sizes (algorithm crossovers)",
    )
    p.add_argument(
        "--crossval", action="store_true",
        help="replay the winning schedule on the DES cluster (N<=16)",
    )
    p.set_defaults(func=_cmd_collectives)

    p = sub.add_parser("service", help="crash-safe ensemble scenario service")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--serve", action="store_true", help="run the journal-backed serving loop on --dir"
    )
    mode.add_argument(
        "--chaos", action="store_true",
        help="seeded SIGKILL campaign (workers + service) with a bit-exactness audit",
    )
    p.add_argument("--dir", help="service root directory")
    p.add_argument("--workers", type=int, default=4, help="worker pool size")
    p.add_argument(
        "--drain", action="store_true",
        help="with --serve: exit once every admitted job is terminal",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="seconds without a worker heartbeat before it is killed",
    )
    p.add_argument(
        "--deadline", type=float, default=120.0, help="wall-clock seconds one attempt may run"
    )
    p.add_argument(
        "--max-attempts", type=int, default=5, help="attempts before a job is quarantined"
    )
    p.add_argument("--seed", type=int, default=0, help="chaos RNG seed")
    p.add_argument("--jobs", type=int, default=50, help="chaos ensemble size")
    p.add_argument(
        "--max-wall", type=float, help="wall-clock budget in seconds (chaos default: 120)"
    )
    p.set_defaults(func=_cmd_service)

    p = sub.add_parser(
        "campaign",
        help="systematic fault campaign: sweep fault kind x magnitude x "
        "timing x scale x backend tier as service jobs and audit "
        "bit-exactness, bounded slowdown and detector behaviour",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid (one cross-tier point + one scenario per kind)",
    )
    p.add_argument("--dir", help="service root (default: a fresh temp directory)")
    p.add_argument("--out", default=".", help="directory for BENCH_campaign.json")
    p.add_argument("--tiers", help="comma-separated backend tiers (default des,analytic,hybrid)")
    p.add_argument(
        "--in-process", action="store_true",
        help="run scenarios inline instead of as ensemble-service jobs",
    )
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "tune-precision",
        help="accuracy-gated mixed-precision search: start from all32, "
        "ddmin-revert the fewest groups to float64 that pass the "
        "SST / kinetic-energy / overturning gates vs the float64 baseline",
    )
    p.add_argument(
        "--smoke", action="store_true", help="reduced CI run (16x8 grid, 4 coupling windows)"
    )
    p.add_argument(
        "--out", default="benchmarks/out",
        help="directory for PRECISION_tuned.json (default benchmarks/out)",
    )
    p.add_argument("--dir", help="service root (default: a fresh temp directory)")
    p.add_argument(
        "--in-process", action="store_true",
        help="evaluate candidates inline instead of as ensemble-service jobs",
    )
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(func=_cmd_tune_precision)

    p = sub.add_parser("century", help="the Section 6 century projection")
    p.set_defaults(func=_cmd_century)

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a library check rejected what was typed
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
