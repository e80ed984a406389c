#!/usr/bin/env python3
"""An N = 4096 interconnect sweep, served as ensemble-service jobs.

The point of the fidelity-switchable backend, end to end: a Fig. 11
weak-scaling sweep out to 4096 processors is submitted to the
crash-safe :class:`repro.service.EnsembleService` as ``sweep`` jobs —
one analytic-tier curve reaching N = 4096, one hybrid-tier curve, and
one DES-tier job pinned to the small N where instantiating a
4096-endpoint fat tree per quote is still affordable.  The analytic
curve is submitted twice to show the service's determinism contract:
a sweep report holds quoted times only (no host timer), so the rerun
reproduces the digest bit-exactly.

Run:  python examples/large_sweep.py
"""

import pathlib
import tempfile

from repro.core.report import format_table, mega, us
from repro.service import JobSpec, run_jobs

#: The full curve: Hyades (16) out to the machine DES cannot reach.
FULL_CURVE = (16, 64, 256, 1024, 4096)
#: Where the packet-level tier stays affordable (see bench_backend).
DES_CURVE = (16, 64)


def main() -> None:
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-sweep-"))
    jobs = [
        JobSpec(kind="sweep", name="analytic-4096",
                params={"n_values": FULL_CURVE, "backend": "analytic"}),
        JobSpec(kind="sweep", name="hybrid-4096",
                params={"n_values": FULL_CURVE, "backend": "hybrid"}),
        JobSpec(kind="sweep", name="des-small",
                params={"n_values": DES_CURVE, "backend": "des"}),
        # same spec as analytic-4096: must land on the same digest
        JobSpec(kind="sweep", name="analytic-rerun",
                params={"n_values": FULL_CURVE, "backend": "analytic"}),
    ]
    print(f"running {len(jobs)} sweep jobs in {root}")
    ids, results, summary = run_jobs(root, jobs, max_wall_s=120.0)

    print(format_table(
        "Sweep jobs", ["job", "digest"],
        ([spec.name, result["digest"] if result else "no result"]
         for spec, result in zip(jobs, results)),
    ))
    assert summary["completed"] == len(ids)
    assert results[0]["digest"] == results[3]["digest"], (
        "sweep digests are pure functions of the spec"
    )

    # the analytic curve, straight from the worker's result.json
    report = results[0]["sweep"]
    print(format_table(
        f"Analytic-tier Pfpp sweep (tile {report['tile'][0]}x{report['tile'][1]}"
        f"x{report['nz']} per processor)",
        ["N", "tgsum (us)", "texchxy (us)", "texchxyz (us)",
         "Pfpp,ps (MFlop/s)", "Pfpp,ds (MFlop/s)"],
        ([r["n_nodes"], us(r["tgsum_s"]), us(r["texchxy_s"]), us(r["texchxyz_s"]),
          mega(r["pfpp_ps_flops"]), mega(r["pfpp_ds_flops"])] for r in report["rows"]),
    ))
    print(
        f"N = {report['rows'][-1]['n_nodes']} is a handful of closed forms on "
        f"the analytic tier; the DES job stopped at N = {DES_CURVE[-1]} by "
        f"design (benchmarks/bench_backend.py counts the simulations and "
        f"events a DES point costs, perf/ times them)"
    )


if __name__ == "__main__":
    main()
