"""Layer probes: each layer's public functions, called directly.

A traced run of *any* workload ends with one pass over these probes, so
every traced run reports the whole per-layer ledger.  Spans say where a
workload's time went; probes give each layer a workload-independent
unit cost (microseconds per event, per packet-hop, per quote, per
journal append ...) that can be compared across commits even when a
workload's mix of calls changes.

Every probe is a function returning ``{metric name: value}``.  A probe
that raises — because a later refactor removed or reshaped the public
function it calls — yields ``None`` for its metrics and a warning, not
a crash.  Sizes are small on purpose: the whole pass takes a few
seconds of the run's fixed cost.
"""

from __future__ import annotations

import statistics
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from perf.harness import remove_tree, scratch_dir

Metrics = Dict[str, Optional[float]]

#: The reduced coupled configuration (as ``gcm_reduced``).
REDUCED = dict(nx=64, ny=32, nz_atm=5, nz_ocn=8, px=4, py=4, coupling_interval=2)


def timed(fn: Callable[[], Any], reps: int = 1) -> Tuple[float, Any]:
    """(median seconds over ``reps`` calls, last result)."""
    times, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def per_call_us(fn: Callable[[], Any], calls: int) -> float:
    """Microseconds per call over a tight loop of ``calls`` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls * 1e6


# -- sim --------------------------------------------------------------------


def probe_sim() -> Metrics:
    """Bare engine: timeouts across 64 generator processes, no fabric.
    Bounds what a heap or process-resume fix alone can give."""
    from repro.sim import Engine

    procs, hops = 64, 400
    engine = Engine()

    def ticker(k: int):
        for _ in range(hops):
            yield engine.timeout(1e-6 * (1 + k % 7))

    for k in range(procs):
        engine.process(ticker(k), name=f"tick{k}")
    seconds, _ = timed(engine.run)
    return {"sim.bare_us_per_event": seconds / engine.events_executed * 1e6}


def _mini_cycle():
    """An N=16 contended cycle: PIO allreduce then VI alltoall."""
    from repro.collectives import build, des_time_schedule
    from repro.hardware import HyadesCluster, HyadesConfig

    cluster = HyadesCluster(HyadesConfig(n_nodes=16))
    des_time_schedule(cluster, build("allreduce", "butterfly", 16, 8))
    des_time_schedule(cluster, build("alltoall", "bruck", 16, 8))
    return cluster.engine.events_executed


def probe_des() -> Metrics:
    """Host microseconds per event with the fabric and the NIUs in the
    loop, and what the virtual-time tracer costs when it is switched on."""
    import repro.obs

    _mini_cycle()  # warm
    plain_s, events = timed(_mini_cycle, reps=3)

    def traced_cycle():
        with repro.obs.tracing():
            return _mini_cycle()

    traced_s, _ = timed(traced_cycle, reps=3)
    return {
        "sim.us_per_event": plain_s / events * 1e6,
        "obs.des_tracer_on_ratio": traced_s / plain_s,
    }


# -- network ----------------------------------------------------------------


def probe_network() -> Metrics:
    """Raw fabric: packet-hops through every topology, and fabric builds."""
    from repro.network.topology import (
        crossvalidate_topology, make_topology, topology_names,
    )
    from repro.sim import Engine

    n, per_pair = 16, 8
    total_s = total_hops = 0.0
    out: Metrics = {}
    for name in topology_names():
        topo = make_topology(name, n)
        hops = per_pair * sum(topo.hop_distance(s, d) for s, d in topo.crossval_pairs())
        seconds, _ = timed(
            lambda: crossvalidate_topology(topo, packets_per_pair=per_pair), reps=2
        )
        total_s += seconds
        total_hops += hops
        if name == "fattree":
            out["network.us_per_packet_hop.fattree"] = seconds / hops * 1e6
    out["network.us_per_packet_hop"] = total_s / total_hops * 1e6
    for size in (64, 1024):
        seconds, _ = timed(
            lambda: make_topology("fattree", size).build_fabric(Engine()),
            reps=3 if size == 64 else 1,
        )
        out[f"network.fabric_build_ms.n{size}"] = seconds * 1e3
    return out


# -- niu / hardware ---------------------------------------------------------


def probe_niu() -> Metrics:
    """The three NIU data paths, one pattern each on a 16-node cluster."""
    import numpy as np
    from repro.collectives import (
        build, des_run_schedule, des_time_schedule, run_schedule,
    )
    from repro.hardware import HyadesCluster, HyadesConfig

    def cluster(n=16):
        return HyadesCluster(HyadesConfig(n_nodes=n))

    out: Metrics = {}
    pio = build("allreduce", "butterfly", 16, 8)
    seconds, _ = timed(lambda: des_time_schedule(cluster(), pio), reps=3)
    out["niu.pio_us_per_msg"] = seconds / pio.total_messages * 1e6
    vi = build("allgather", "ring", 8, 1024)
    seconds, _ = timed(lambda: des_time_schedule(cluster(8), vi), reps=3)
    out["niu.vi_us_per_kb"] = seconds / (vi.total_bytes / 1024.0) * 1e6
    reliable = build("allgather", "recursive_doubling", 8, 1024)
    inputs = [np.arange(128, dtype=np.float64) + rank for rank in range(8)]
    seconds, (results, _virtual) = timed(
        lambda: des_run_schedule(cluster(8), reliable, inputs)
    )
    reference = run_schedule(reliable, inputs)
    if not all(np.array_equal(a, b) for a, b in zip(results, reference)):
        raise AssertionError("reliable allgather differs from the reference engine")
    out["niu.reliable_us_per_kb"] = seconds / (reliable.total_bytes / 1024.0) * 1e6
    return out


def probe_hardware() -> Metrics:
    from repro.hardware import HyadesCluster, HyadesConfig

    seconds, _ = timed(lambda: HyadesCluster(HyadesConfig(n_nodes=64)), reps=3)
    return {"hardware.cluster_build_ms.n64": seconds * 1e3}


# -- collectives ------------------------------------------------------------

#: (op, algorithm, ranks, payload bytes) built by the schedule probe.
SCHEDULE_LIST = (
    ("allreduce", "butterfly", 4096, 8),
    ("allreduce", "reduce_scatter_allgather", 1024, 4096),
    ("allreduce", "ring", 64, 1024),
    ("allgather", "recursive_doubling", 256, 64),
    ("alltoall", "bruck", 256, 8),
    ("barrier", "dissemination", 4096, 8),
)

#: (op, ranks, payload bytes) planned by the tuner probe.
PLAN_LIST = (("allreduce", 64, 8), ("allreduce", 64, 65536), ("alltoall", 32, 64),
             ("barrier", 256, 8))


def probe_collectives() -> Metrics:
    from repro.collectives import Autotuner, build

    build_s, _ = timed(lambda: [build(*spec) for spec in SCHEDULE_LIST])
    tuner = Autotuner()
    cold_s, _ = timed(lambda: [tuner.plan(*spec) for spec in PLAN_LIST])
    warm_us = per_call_us(lambda: tuner.plan(*PLAN_LIST[0]), 2000)
    return {
        "collectives.schedule_build_ms": build_s * 1e3,
        "collectives.plan_cold_ms": cold_s * 1e3,
        "collectives.plan_warm_us": warm_us,
    }


# -- backend / faults -------------------------------------------------------

EDGES = [1920, 1920, 0, 3840]


def probe_backend() -> Metrics:
    """Cold and warm quotes per tier, and the degraded-quote surcharge."""
    from repro.backend import resolve_backend
    from repro.faults import DegradationSchedule, FaultPlan, SlowdownEvent

    out: Metrics = {}

    def quotes(be, **kw):
        return be.exchange_time(EDGES, n_ranks=16, **kw) + be.gsum_time(16, **kw)

    cold_s, des = timed(lambda: resolve_backend("des"))
    cold_s, _ = timed(lambda: quotes(des))
    out["backend.cold_quote_ms.des"] = cold_s * 1e3
    for tier in ("des", "analytic", "hybrid"):
        be = des if tier == "des" else resolve_backend(tier)
        quotes(be)
        out[f"backend.warm_quote_us.{tier}"] = per_call_us(lambda: quotes(be), 1000) / 2
    clean = resolve_backend("analytic")
    degraded = resolve_backend("analytic")
    degraded.set_degradation(DegradationSchedule(FaultPlan(
        slowdowns=(SlowdownEvent(node=1, start=0.0, duration=1.0, factor=2.0),),
    )))
    quotes(clean), quotes(degraded, now=0.5)
    clean_us = per_call_us(lambda: quotes(clean), 5000)
    degraded_us = per_call_us(lambda: quotes(degraded, now=0.5), 5000)
    out["faults.degraded_quote_ratio"] = degraded_us / clean_us
    return out


# -- parallel ---------------------------------------------------------------


def probe_parallel() -> Metrics:
    """The PS-phase halo fill on the reduced decomposition: five 3-D
    fields, width 3 — data movement only, no pricing."""
    import numpy as np
    from repro.parallel import Decomposition, exchange_halos

    decomp = Decomposition(REDUCED["nx"], REDUCED["ny"], REDUCED["px"], REDUCED["py"], olx=3)
    rng = np.random.default_rng(0)
    fields = [
        [rng.standard_normal(t.shape3d(REDUCED["nz_ocn"])) for t in decomp.tiles]
        for _ in range(5)
    ]

    def fill():
        for field in fields:
            exchange_halos(decomp, field, 3)

    fill()
    return {"parallel.halo_us_per_call": per_call_us(fill, 20) / len(fields)}


# -- gcm / precision / obs.metrics ------------------------------------------


def probe_gcm() -> Metrics:
    """Reduced coupled windows on the analytic tier, three ways in turn:
    plain, with a float32 wire, and with the metrics recorder attached."""
    from repro.gcm.coupled import coupled_model

    def build(**kw):
        cm = coupled_model(backend="analytic", **REDUCED, **kw)
        cm.step_coupled()
        return cm

    plain, wire32, metered = build(), build(precision="wire32"), build()
    for model in (metered.atmosphere, metered.ocean):
        model.runtime.attach_metrics()
    times: Dict[str, List[float]] = {"plain": [], "wire32": [], "metered": []}
    for _ in range(3):
        for key, cm in (("plain", plain), ("wire32", wire32), ("metered", metered)):
            seconds, _ = timed(cm.step_coupled)
            times[key].append(seconds)
    med = {k: statistics.median(v) for k, v in times.items()}
    cell_steps = REDUCED["coupling_interval"] * REDUCED["nx"] * REDUCED["ny"] * (
        REDUCED["nz_atm"] + REDUCED["nz_ocn"]
    )

    def wire_bytes(cm):
        return sum(
            m.runtime.summary()["total_bytes_exchanged"]
            for m in (cm.atmosphere, cm.ocean)
        )

    return {
        "gcm.us_per_cell_step": med["plain"] / cell_steps * 1e6,
        "precision.wire32_step_ratio": med["wire32"] / med["plain"],
        "precision.wire_bytes_ratio": wire_bytes(wire32) / wire_bytes(plain),
        "obs.metrics_on_ratio": med["metered"] / med["plain"],
    }


def probe_checkpoints() -> Metrics:
    """Both checkpoint paths on the reduced coupled pair."""
    from repro.gcm.checkpoint import load_checkpoint, save_checkpoint
    from repro.gcm.coupled import coupled_model
    from repro.recover import CoordinatedCheckpointStore

    cm = coupled_model(backend="analytic", **REDUCED)
    cm.step_coupled()
    root = scratch_dir("ckpt")
    try:
        write_s, path = timed(lambda: save_checkpoint(cm.ocean, root / "ocean"))
        read_s, _ = timed(lambda: load_checkpoint(cm.ocean, path))
        store = CoordinatedCheckpointStore(root / "coordinated")
        models = {"atm": cm.atmosphere, "ocn": cm.ocean}
        cwrite_s, record = timed(lambda: store.checkpoint(models, window=1))
        crestore_s, _ = timed(lambda: store.restore(models, record))
    finally:
        remove_tree(root)
    return {
        "gcm.ckpt_write_ms": write_s * 1e3,
        "gcm.ckpt_read_ms": read_s * 1e3,
        "recover.ckpt_write_ms": cwrite_s * 1e3,
        "recover.ckpt_restore_ms": crestore_s * 1e3,
    }


# -- service ----------------------------------------------------------------


def probe_service() -> Metrics:
    """The durable queue without workers: append, replay, start-up; and
    one job's model compute run inline."""
    from repro.service import (
        EnsembleService, JobQueue, JobSpec, Journal, execute_job,
    )

    appends = 100
    root = scratch_dir("journal")
    try:
        journal = Journal(root / "journal.bin")
        journal.open()
        queue = JobQueue(journal)
        queue.replay()
        t0 = time.perf_counter()
        for i in range(appends):
            queue.submit(JobSpec(kind="sleep", name=f"probe-{i}", params={"i": i}))
        append_s = (time.perf_counter() - t0) / appends
        journal.close()

        def replay():
            with Journal(root / "journal.bin") as reopened:
                return JobQueue(reopened).replay()

        replay_s, records = timed(replay, reps=3)
        service = EnsembleService(root)
        startup_s, _ = timed(service.startup)
        service.shutdown()
    finally:
        remove_tree(root)
    spec = JobSpec(kind="ocean", name="probe-inline", params={
        "nx": 16, "ny": 8, "nz": 3, "dt": 1200.0, "steps": 8,
        "perturb_seed": 1, "perturb_amp": 0.01,
    })
    execute_job(spec)
    compute_s, _ = timed(lambda: execute_job(spec), reps=3)
    return {
        "service.journal_append_us": append_s * 1e6,
        "service.journal_replay_us_per_record": replay_s / records * 1e6,
        "service.startup_ms": startup_s * 1e3,
        "service.job_compute_ms": compute_s * 1e3,
    }


PROBES: List[Callable[[], Metrics]] = [
    probe_sim, probe_des, probe_network, probe_niu, probe_hardware,
    probe_collectives, probe_backend, probe_parallel, probe_gcm,
    probe_checkpoints, probe_service,
]


def run_probes() -> Tuple[Metrics, List[str], float]:
    """Run every probe; returns (metrics, warnings, seconds spent)."""
    metrics: Metrics = {}
    warnings: List[str] = []
    t0 = time.perf_counter()
    for probe in PROBES:
        try:
            metrics.update(probe())
        except Exception:  # the benchmark outlives the code it measures
            warnings.append(
                f"probe {probe.__name__} failed; its metrics read null\n"
                + traceback.format_exc()
            )
    return metrics, warnings, time.perf_counter() - t0
