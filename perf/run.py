#!/usr/bin/env python3
"""The host-time benchmark (ISSUE 11): how long *our Python* takes.

``benchmarks/`` reproduces the paper's figures in *virtual* time (what
the simulated Hyades would take).  This directory measures *host* time:
what the simulator and the model cost to run, end to end and layer by
layer.  See ``perf/README.md``.

One run of one workload (what the driver calls)::

    python3 perf/run.py --workload gcm_reduced --seed 3 --seconds 14 --trace 0

measures for ``--seconds``, checks the program's outputs, prints every
metric by name with its unit and ends with one JSON line.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ledger (a
separate run: end-to-end numbers never carry tracing overhead).

The whole suite (what a developer calls)::

    python3 perf/run.py [--rounds 3] [--workload NAME ...] [--trace] [--smoke]

runs every workload once per round, round-robin, each in its own child
process, pools the rounds and writes ``perf/out/results.json``.  The box
drifts by tens of percent over tens of seconds; interleaving the rounds
is what lets two suites of the same commit agree.

``--compare PARENT.json CHANGE.json`` judges two suite results by the
rule later changes are held to (see :mod:`perf.compare`).
"""

from __future__ import annotations

import os
import sys

# Before NumPy is imported anywhere: one BLAS/OpenMP thread, so a run
# uses one core and the service's two workers have the other.
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import time

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# ``perf/trace.py`` must not shadow the standard library's ``trace``:
# import the benchmark as the package ``perf`` from the repository root.
sys.path[:] = [
    p for p in sys.path if pathlib.Path(p or ".").resolve() != PERF_DIR
]
sys.path.insert(0, str(SRC_DIR))
sys.path.insert(0, str(REPO_ROOT))

from perf import metrics as M  # noqa: E402
from perf.harness import (  # noqa: E402
    OUT_DIR, DeprecationCounter, Recorder, host_factor, quantile, reference_burst,
    select, spread,
)

GOLDEN_PATH = PERF_DIR / "golden.json"
SMOKE_SECONDS = 1.0
DEFAULT_ROUNDS = 3


def workload_classes() -> dict:
    """name -> class, in the order ISSUE 11 lists them."""
    from perf.workloads.des_contended import DesContended
    from perf.workloads.des_streams import DesStreams
    from perf.workloads.gcm import TIER_VARIANTS, GcmProduction, GcmReduced
    from perf.workloads.quote_sweep import QuoteSweep
    from perf.workloads.service_drain import ServiceDrain

    classes = (GcmProduction, GcmReduced, DesContended, DesStreams, QuoteSweep,
               ServiceDrain)
    return {cls.name: cls for cls in classes + TIER_VARIANTS}


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------


def golden_key() -> str:
    """Digests are bit patterns of floating-point state: they hold for
    one NumPy minor version on one machine architecture."""
    import numpy

    major, minor = numpy.__version__.split(".")[:2]
    return f"numpy-{major}.{minor}/{platform.machine()}"


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


#: ``model_err_max`` may exceed its recorded value by this much (absolute).
MODEL_ERR_SLACK = 0.001
#: Simulated statistics a GCM workload must reproduce exactly.
GOLDEN_COUNTS = ("digest", "virtual_elapsed_s", "windows_per_block")


def check_golden(rec: Recorder, name: str, warnings: list) -> None:
    """Compare the run's deterministic results with ``perf/golden.json``:
    the GCM digests and virtual time exactly, ``model_err_max`` to
    +0.001 (simulated results do not depend on the seed)."""
    entry = load_golden().get(golden_key(), {}).get(name)
    if entry is None:
        warnings.append(
            f"golden: no record for {name} under {golden_key()}; "
            f"only the in-run checks apply (record one with --record-golden)"
        )
        return
    rec.check(
        f"model_err_max within +{MODEL_ERR_SLACK} of perf/golden.json",
        rec.model_err_max <= entry["model_err_max"] + MODEL_ERR_SLACK,
        f"run {rec.model_err_max!r}, golden {entry['model_err_max']!r}",
    )
    for key in GOLDEN_COUNTS:
        if key in entry:
            rec.check(
                f"{key} equals perf/golden.json", rec.counts.get(key) == entry[key],
                f"run {rec.counts.get(key)!r}, golden {entry[key]!r}",
            )


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


def time_setup(name: str, seed: int, smoke: bool) -> dict:
    """One fresh process doing the set-up only, timed from spawn to exit
    and bracketed by reference bursts like any other op."""
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--phase", "setup",
           "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    ref_before = reference_burst(3)
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    raw_s = time.perf_counter() - t0
    factor = host_factor(ref_before, reference_burst(3))
    return {"raw_s": raw_s, "host_factor": factor, "s": raw_s / factor}


def setup_only(name: str, seed: int, smoke: bool) -> int:
    """``--phase setup``: everything up to the first timed op, then exit."""
    workload = workload_classes()[name](seed, smoke)
    try:
        workload.prepare()
    finally:
        workload.close()
    return 0


def timing_summary(samples: list, cls) -> dict:
    """The timing figures of a list of timed samples (one run's, or the
    pooled rounds'): untraced, successful ops only; empty without ops."""
    thr = select(samples, cls.throughput_kind)
    lat = select(samples, cls.latency_kind)
    if not (thr and lat):
        return {}
    per_op = [s["s"] / s["ops"] for s in lat]
    return {
        "ops_per_s": sum(s["ops"] for s in thr) / sum(s["s"] for s in thr),
        "op_ms_p50": statistics.median(per_op) * 1e3,
        "op_samples": len(per_op),
        "tail.op_ms_p90": quantile(per_op, M.TAIL_QUANTILE) * 1e3,
        "host.raw_op_ms_p50": statistics.median(s["raw_s"] / s["ops"] for s in lat) * 1e3,
        "host.speed_factor": statistics.median(s["host_factor"] for s in samples),
    }


def layer_ledger(workload, rec: Recorder, tracer, deprecations: int,
                 timing: dict, warnings: list) -> dict:
    """Every per-layer metric of one traced run."""
    from perf.probes import run_probes

    summary = tracer.summary()
    op_seconds, ops = tracer.op_totals()
    probe_values, probe_warnings, probe_s = run_probes()
    warnings.extend(probe_warnings)
    extra = workload.layer_metrics(rec)
    traced = [s["s"] / s["ops"] for s in rec.values(workload.latency_kind, traced=True)]
    timed = [s for s in rec.samples if not s["failed"]]
    untraced_p50 = timing.get("op_ms_p50", 0.0) / 1e3
    layer_self = tracer.layer_self()
    uncovered = sum(per_layer.get("bench", 0.0) for per_layer in layer_self.values())
    bench = {
        "model_err_max": rec.model_err_max,
        "trace.overhead_ratio": (
            statistics.median(traced) / untraced_p50 if traced and untraced_p50 else None
        ),
        "trace.untraced_share": (
            uncovered / op_seconds if op_seconds else None
        ),
        "host.cpu_wall_ratio": (
            sum(s["cpu_s"] for s in timed) / sum(s["raw_s"] for s in timed)
            if timed else None
        ),
        "host.deprecation_warnings": deprecations,
        **{k: timing.get(k) for k in
           ("host.speed_factor", "host.raw_op_ms_p50", "tail.op_ms_p90")},
    }
    ledger = {}
    for m in M.PER_LAYER:
        if isinstance(m.source, tuple):
            value = M.span_value(m.source, summary, op_seconds, ops, tracer.absent_keys())
        elif m.source == "probe":
            value = probe_values.get(m.name)
        elif m.source == "workload":
            value = extra.get(m.name, 0)
        else:
            value = bench.get(m.name)
        ledger[m.name] = value
    by_kind = {kind: tracer.summary(kind) for kind in layer_self}
    return {"ledger": ledger, "spans": summary, "spans_by_kind": by_kind,
            "layer_self_s": layer_self,
            "traced_op_seconds": op_seconds, "traced_ops": ops, "probe_seconds": probe_s}


def measure(workload, rec: Recorder, seconds: float, trace: bool,
            setup_reps: int) -> tuple:
    """Run blocks until ``seconds`` of measuring time are spent; returns
    (blocks run, seconds measured, set-up samples)."""
    setup_samples: list = []
    deadline = time.perf_counter() + seconds
    blocks = 0
    while True:
        # a traced run alternates untraced and traced blocks, so the
        # overhead ratio compares neighbours in time
        rec.begin_block(traced=trace and blocks % 2 == 1)
        workload.block(rec)
        blocks += 1
        if len(setup_samples) < setup_reps:
            # one fresh-process set-up between blocks: the samples
            # spread over the run like the ops do, so they see the same
            # mix of the host's fast and slow spells; their time is not
            # measuring time
            t_child = time.perf_counter()
            setup_samples.append(time_setup(workload.name, workload.seed, workload.smoke))
            deadline += time.perf_counter() - t_child
        if time.perf_counter() >= deadline and (not trace or blocks >= 2):
            break
    rec.tracing = False
    measured_s = time.perf_counter() - deadline + seconds
    while len(setup_samples) < setup_reps:
        setup_samples.append(time_setup(workload.name, workload.seed, workload.smoke))
    return blocks, measured_s, setup_samples


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload once; returns the full detail record."""
    from perf.trace import Tracer

    counter = DeprecationCounter()
    counter.install()
    warnings: list = []
    workload = workload_classes()[name](seed, smoke)
    tracer = Tracer() if trace else None
    rec = Recorder(tracer)
    started = time.perf_counter()
    detail: dict = {}
    try:
        workload.prepare()
        prepared_s = time.perf_counter() - started
        if tracer is not None:
            tracer.install()
            warnings.extend(tracer.warnings)
        blocks, measured_s, setup_samples = measure(
            workload, rec, seconds, trace,
            setup_reps=0 if trace else 1 if smoke else workload.setup_reps,
        )
        if tracer is not None:
            tracer.uninstall()
        workload.finish(rec)
        if not smoke:
            check_golden(rec, name, warnings)

        timing = timing_summary(rec.samples, type(workload))
        rec.check("at least one op completed", bool(timing))
        rec.check("no DeprecationWarning from repro or the benchmark",
                  not counter.messages, "; ".join(counter.messages[:5]))
        end_to_end = {k: timing[k] for k in ("ops_per_s", "op_ms_p50") if k in timing}
        detail["timing"] = timing
        end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if trace:
            layers = layer_ledger(
                workload, rec, tracer, len(counter.messages), timing, warnings,
            )
            warnings.extend(w for w in tracer.warnings if w not in warnings)
            detail["layers"] = layers
            chrome = tracer.chrome(name)
            from repro.obs.schema import validate_chrome_trace

            errors = validate_chrome_trace(chrome)
            rec.check("trace is valid Chrome trace JSON", not errors, "; ".join(errors))
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            with open(OUT_DIR / f"trace-{name}.json", "w") as fh:
                json.dump(chrome, fh)
        else:
            end_to_end["setup_s"] = statistics.median(s["s"] for s in setup_samples)
            detail["setup_samples"] = setup_samples
    finally:
        workload.close()

    failed_checks = [(n, d) for n, ok, d in rec.checks if not ok]
    detail.update({
        "workload": name, "op": workload.op, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "correct": rec.failed == 0 and not failed_checks,
        "attempted": rec.attempted, "failed": rec.failed,
        "end_to_end": end_to_end,
        "samples": rec.samples,
        "counts": rec.counts,
        "model_err_max": rec.model_err_max, "model_err_n": rec.model_err_n,
        "checks_run": len(rec.checks),
        "failed_checks": failed_checks,
        "warnings": warnings,
        "deprecations": counter.messages,
        "blocks": blocks, "prepared_s": prepared_s, "measured_s": measured_s,
        "total_s": time.perf_counter() - started,
        "python": platform.python_version(), "golden_key": golden_key(),
    })
    return detail


def metric_line(name: str, value, unit: str, note: str = "") -> str:
    shown = "null" if value is None else (
        f"{value:.6g}" if isinstance(value, float) else str(value)
    )
    return f"  {name:40s} {shown:>14s} {unit:8s} {note}"


def print_run(detail: dict) -> None:
    """Every metric by name with its unit, then the exact counts."""
    name = detail["workload"]
    print(f"== {name} (seed {detail['seed']}, {detail['measured_s']:.1f} s measured, "
          f"{detail['blocks']} blocks, trace {detail['trace']})")
    print(f"   op: {detail['op']}")
    kinds: dict = {}
    for s in detail["samples"]:
        kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
    print("   samples: " + ", ".join(f"{n} x {k}" for k, n in kinds.items()))
    e2e = detail["end_to_end"]
    for m in M.END_TO_END:
        if m.name in e2e:
            print(metric_line(m.name, e2e[m.name], m.unit))
    attempted, failed = detail["attempted"], detail["failed"]
    print(metric_line("fail_ratio", failed / attempted if attempted else 1.0, "ratio",
                      f"{failed} of {attempted} ops"))
    print(metric_line("model_err_max", detail["model_err_max"], "ratio",
                      f"n={detail['model_err_n']}"))
    timing = detail["timing"]
    if timing:
        print(metric_line("tail.op_ms_p90", timing["tail.op_ms_p90"], "ms", "not gated"))
        print(metric_line("host.speed_factor", timing["host.speed_factor"], "ratio",
                          "reference kernel time / nominal; times above are raw / this"))
        print(metric_line("host.raw_op_ms_p50", timing["host.raw_op_ms_p50"], "ms",
                          "as the clock read it"))
    if "layers" in detail:
        for key, value in detail["layers"]["ledger"].items():
            print(metric_line(key, value, M.LAYER_UNITS[key]))
        for kind, shares in detail["layers"]["layer_self_s"].items():
            total = sum(shares.values()) or 1.0
            print(f"   self time by layer (traced {kind}): " + ", ".join(
                f"{layer} {seconds / total:.1%}"
                for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1])
            ))
    print("   exact counts: " + json.dumps(detail["counts"], sort_keys=True))
    for warning in detail["warnings"]:
        print(f"   warning: {warning}", file=sys.stderr)
    for check, why in detail["failed_checks"]:
        print(f"   FAILED: {check}: {why}")
    print(f"   {detail['checks_run']} checks, "
          f"{'all passed' if detail['correct'] else 'FAILED'}")


def contract_line(detail: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    if detail["trace"]:
        units = M.LAYER_UNITS
        values = detail["layers"]["ledger"]
    else:
        units = {m.name: m.unit for m in M.END_TO_END}
        values = detail["end_to_end"]
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": values.get(k), "unit": units[k]} for k in units},
    })


def write_detail(detail: dict) -> pathlib.Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"run-{detail['workload']}-trace{detail['trace']}.json"
    with open(path, "w") as fh:
        json.dump(detail, fh)
    return path


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in its own process; returns its detail record."""
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    path = OUT_DIR / f"run-{name}-trace{trace}.json"
    if proc.returncode not in (0, 1) or not path.exists():
        print(proc.stdout)
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    with open(path) as fh:
        detail = json.load(fh)
    if not detail["correct"]:
        print(proc.stdout)
    return detail


def pool(runs: list, cls) -> dict:
    """Pool the rounds of one workload (ISSUE 11, "Run shape")."""
    timing = timing_summary([s for r in runs for s in r["samples"]], cls)
    setups = [s["s"] for r in runs for s in r.get("setup_samples", [])]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "ops_per_s": timing.get("ops_per_s"),
        "op_ms_p50": timing.get("op_ms_p50"),
        "op_samples": timing.get("op_samples", 0),
        "setup_s": statistics.median(setups) if setups else None,
        "setup_samples": len(setups),
        "peak_rss_mb": max(r["end_to_end"]["peak_rss_mb"] for r in runs),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "model_err_max": max(r["model_err_max"] for r in runs),
        "tail.op_ms_p90": timing.get("tail.op_ms_p90"),
    }


def run_suite(args) -> int:
    classes = workload_classes()
    names = args.workload or [n for n, _ in M.WORKLOADS]
    rounds = 1 if args.smoke else (args.rounds or DEFAULT_ROUNDS)
    seconds = run_seconds(args)
    started = time.perf_counter()
    runs: dict = {name: [] for name in names}
    traced: dict = {}
    for rnd in range(rounds):
        for name in names:
            detail = child_run(name, args.seed, seconds, 0, args.smoke)
            runs[name].append(detail)
            e = detail["end_to_end"]
            print(f"round {rnd + 1}/{rounds} {name:15s} "
                  f"{e.get('ops_per_s', float('nan')):10.4g} ops/s  "
                  f"p50 {e.get('op_ms_p50', float('nan')):9.4g} ms  "
                  f"setup {e.get('setup_s', float('nan')):6.3f} s  "
                  f"rss {e['peak_rss_mb']:6.1f} MB  "
                  f"{'ok' if detail['correct'] else 'FAILED'}", flush=True)
    if args.trace:
        for name in names:
            traced[name] = child_run(name, args.seed, seconds / 3.0, 1, args.smoke)
            print(f"traced {name:15s} overhead "
                  f"{traced[name]['layers']['ledger']['trace.overhead_ratio']}", flush=True)

    result = {
        "schema": 1, "seed": args.seed, "seconds": seconds, "rounds": rounds,
        "smoke": args.smoke, "golden_key": golden_key(), "workloads": {},
    }
    ok = True
    print()
    for name in names:
        pooled = pool(runs[name], classes[name])
        correct = all(r["correct"] for r in runs[name]) and (
            name not in traced or traced[name]["correct"]
        )
        ok &= correct
        counts = runs[name][0]["counts"]
        same_counts = all(r["counts"] == counts for r in runs[name])
        ok &= same_counts
        print(f"== {name}: {classes[name].op}")
        for m in M.END_TO_END:
            note = ""
            if m.name == "op_ms_p50":
                note = f"{pooled['op_samples']} samples"
            if m.name == "setup_s":
                note = f"{pooled['setup_samples']} fresh processes"
            if rounds >= 4:
                per_round = [r["end_to_end"][m.name] for r in runs[name]]
                note += f"  spread over rounds {spread(per_round):.3f} (bound {m.bound})"
            print(metric_line(m.name, pooled[m.name], m.unit, note))
        print(metric_line("fail_ratio", pooled["fail_ratio"], "ratio"))
        print(metric_line("model_err_max", pooled["model_err_max"], "ratio"))
        print(metric_line("tail.op_ms_p90", pooled["tail.op_ms_p90"], "ms", "not gated"))
        print("   exact counts" + ("" if same_counts else " (DIFFER BETWEEN ROUNDS)")
              + ": " + json.dumps(counts, sort_keys=True))
        entry = {
            "pooled": pooled, "correct": correct,
            "failed": sum(r["failed"] for r in runs[name]),
            "counts": counts,
            "runs": [{"end_to_end": r["end_to_end"], "correct": r["correct"],
                      "timing": r["timing"]} for r in runs[name]],
            "failed_checks": [c for r in runs[name] for c in r["failed_checks"]],
        }
        if name in traced:
            ledger = traced[name]["layers"]["ledger"]
            for key, value in ledger.items():
                print(metric_line(key, value, M.LAYER_UNITS[key]))
            entry["per_layer"] = ledger
            entry["layer_self_s"] = traced[name]["layers"]["layer_self_s"]
            entry["failed_checks"] += traced[name]["failed_checks"]
        for check, why in entry["failed_checks"]:
            print(f"   FAILED: {check}: {why}")
        result["workloads"][name] = entry
    result["wall_s"] = time.perf_counter() - started
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {out} ({result['wall_s']:.0f} s); "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    if args.record_golden:
        record_golden(runs)
    return 0 if ok else 1


def record_golden(runs: dict) -> None:
    """Write this machine's deterministic results into ``perf/golden.json``."""
    golden = load_golden()
    entry = golden.setdefault(golden_key(), {})
    for name, details in runs.items():
        first = details[0]
        if first["smoke"] or not first["correct"]:
            continue
        entry[name] = {"model_err_max": first["model_err_max"]}
        entry[name].update(
            {k: first["counts"][k] for k in GOLDEN_COUNTS if k in first["counts"]}
        )
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sorted(entry)} under {golden_key()} in {GOLDEN_PATH}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    names = [n for n, _ in M.WORKLOADS] + list(M.TIER_VARIANTS)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="generates the workloads' inputs (default 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"seconds one run measures (default {M.RUN_SECONDS})")
    p.add_argument("--trace", nargs="?", const=1, type=int, default=0, choices=(0, 1),
                   help="one run: report the per-layer ledger; suite: add a traced pass")
    p.add_argument("--rounds", type=int, default=None,
                   help=f"suite rounds (default {DEFAULT_ROUNDS}); forces suite mode")
    p.add_argument("--smoke", action="store_true",
                   help="one round, a tenth of the ops, checks still on")
    p.add_argument("--out", help="suite results file (default perf/out/results.json)")
    p.add_argument("--record-golden", action="store_true",
                   help="after the suite, record digests and model errors in perf/golden.json")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="judge two suite result files and exit")
    p.add_argument("--print-manifest", action="store_true",
                   help="print BENCHMARK.json and exit")
    p.add_argument("--phase", choices=("setup",), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_seconds(args) -> float:
    if args.seconds is not None:
        return args.seconds
    return SMOKE_SECONDS if args.smoke else M.RUN_SECONDS


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.print_manifest:
        print(json.dumps(M.manifest(), indent=2))
        return 0
    if args.compare:
        from perf.compare import compare_files

        return compare_files(*args.compare)
    if not (SRC_DIR / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    single = (args.workload is not None and len(args.workload) == 1
              and args.rounds is None and not args.record_golden)
    if args.phase == "setup":
        return setup_only(args.workload[0], args.seed, args.smoke)
    if not single:
        return run_suite(args)
    detail = run_once(args.workload[0], args.seed, run_seconds(args), bool(args.trace),
                      args.smoke)
    write_detail(detail)
    print_run(detail)
    print(contract_line(detail))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        try:
            (OUT_DIR / "tmp").rmdir()  # only if every scratch tree is gone
        except OSError:
            pass
    sys.exit(code)
