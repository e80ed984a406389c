"""Exact ``repro.*`` module set a service worker imports for an ocean
job (a `scripts/ci.sh` stage of its own, beside the spawn budget).

A worker is forked from a serving parent that imported only
``repro.service``, so every module the job needs is imported — and,
without cached bytecode, compiled — once per worker process.  Package
exports load on first use (:mod:`repro._lazy`), so an analytic-tier
ocean job loads the GCM, the lockstep runtime and the comm-pricing
tiers, and not the packet-level DES under them.  A package
``__init__`` that imports its submodules again, or a module-level
import of the DES stack on the ocean path, fails here by name, not by
timing.
"""

import json
import subprocess
import sys
import textwrap

#: ``JOB_SHAPE`` of perf/workloads/service_drain.py: the analytic tier
#: (no ``backend``), 16x8x3 on one rank, 8 steps.
JOB = {"nx": 16, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 8,
       "perturb_seed": 1, "perturb_amp": 0.01}

OCEAN_JOB_MODULES = (
    "repro._lazy",
    "repro.backend", "repro.backend.analytic", "repro.backend.base",
    "repro.backend.crossval", "repro.backend.des", "repro.backend.hybrid",
    "repro.backend.sweep",
    "repro.gcm", "repro.gcm.cg", "repro.gcm.checkpoint", "repro.gcm.constants",
    "repro.gcm.eos", "repro.gcm.grid", "repro.gcm.ocean", "repro.gcm.operators", "repro.gcm.physics",
    "repro.gcm.pressure", "repro.gcm.prognostic", "repro.gcm.state",
    "repro.gcm.timestepper", "repro.gcm.topography",
    "repro.network", "repro.network.costmodel", "repro.network.overheads",
    "repro.network.packet",
    "repro.parallel", "repro.parallel.exchange", "repro.parallel.globalsum",
    "repro.parallel.runtime", "repro.parallel.tiling",
    "repro.precision", "repro.precision.codec", "repro.precision.config",
    "repro.recover", "repro.recover.checkpoint",
)

#: what an analytic-tier job never runs: the DES engine, the fabric and
#: the NIUs under it, the machine assembled from them, crash recovery,
#: the coupled atmosphere and the non-hydrostatic solver.
NOT_RUN = ("repro.sim", "repro.niu", "repro.hardware", "repro.core",
           "repro.network.router", "repro.network.fabrics",
           "repro.network.fattree", "repro.network.topology", "repro.recover.manager",
           "repro.recover.membership", "repro.gcm.coupled", "repro.gcm.atmosphere",
           "repro.gcm.nonhydrostatic")

# Runs in a fresh interpreter: this test process has imported everything.
PROBE = textwrap.dedent("""
    import json, os, pathlib, sys, tempfile

    def loaded():
        return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}

    from repro.service import JobSpec, ServiceConfig, SupervisorConfig, execute_job, run_jobs

    spec = JobSpec(kind="ocean", name="member", params=json.loads(sys.argv[1]))
    parent = loaded()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: one attempt, checkpoints included
        with tempfile.TemporaryDirectory() as job_dir:
            execute_job(spec, pathlib.Path(job_dir))
        os.write(write_fd, json.dumps(sorted(loaded() - parent)).encode())
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        added = json.load(pipe)
    assert os.waitpid(pid, 0)[1] == 0
    with tempfile.TemporaryDirectory() as root:
        _, results, _ = run_jobs(pathlib.Path(root), [spec], ServiceConfig(
            supervisor=SupervisorConfig(max_workers=1)), max_wall_s=60.0)
    print(json.dumps({
        "added": added,
        "completed": results[0] is not None,
        "serving_parent": sorted(m for m in sys.modules
                                 if m == "numpy" or m.startswith(("numpy.", "repro.gcm"))),
    }))
""")


def probe():
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(JOB)],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_analytic_ocean_job_imports_exactly_its_layers():
    found = probe()
    added = found["added"]
    assert not [m for m in added if m.startswith(NOT_RUN)]
    assert tuple(added) == OCEAN_JOB_MODULES
    # the serving parent drained the job without importing the model
    assert found["completed"] and found["serving_parent"] == []
