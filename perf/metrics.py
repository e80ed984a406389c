"""The benchmark's names: workloads, end-to-end metrics, per-layer ledger.

``BENCHMARK.json`` at the repository root is generated from this module
(``python perf/run.py --print-manifest``), so the names a run prints and
the names the manifest declares cannot drift apart.

Per-layer metrics come from four sources:

``span``      the traced section of the workload itself: a layer's share
              of the traced op time (inclusive unless the name says
              ``self``) or an exact count per op.  A workload that never
              enters the layer reads 0 — measured, not missing.
``probe``     :mod:`perf.probes`: the layer's public function called
              directly with fixed inputs, at the end of every traced
              run.  Workload-independent unit costs.
``workload``  a number only the workload can give (flops it charged,
              its workers' resident size); 0 on the others.
``bench``     the benchmark watching itself: tracing overhead, CPU share
              of wall time, the unbounded tail, deprecation warnings.

``moves`` is the prediction written down before measuring: the
end-to-end metric and workload an optimisation of that layer should
show up in.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "probe", "workload", "bench", or a span rule
    #: ``(kind, "layer.span"[, counter])`` with kind one of
    #: ``share`` / ``self_share`` / ``calls`` / ``count``.
    source: Union[str, Tuple[str, ...]]
    moves: str


#: One run measures for this many seconds (the manifest's ``run_seconds``).
RUN_SECONDS = 14

#: The tail is printed, never gated: on this 2-core shared box p90 moved
#: 123 -> 145 ms between identical runs.
TAIL_QUANTILE = 0.90

END_TO_END: List[EndToEnd] = [
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25,
             "timed ops / summed timed seconds of the run, host-speed normalised"),
    EndToEnd("op_ms_p50", "ms", "lower", 0.25,
             "median host time of one op over the run's samples, host-speed "
             "normalised"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over fresh processes of interpreter start + imports "
             "+ construction + warm-up ops, up to the first timed op, host-speed "
             "normalised"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the measuring process"),
]

WORKLOADS: List[Tuple[str, str]] = [
    ("gcm_production",
     "coupled model at the paper's 128x64 size, analytic tier: large tiles, "
     "NumPy-bound; control for small-tile optimisations"),
    ("gcm_reduced",
     "same code at 64x32 with 16x8 tiles on the DES tier: interpreter and "
     "small-array overhead dominate, ~3x the cost per cell"),
    ("des_contended",
     "N=64 packet-level allreduce + halo exchange + alltoall through the NIUs: "
     "engine, routers and NIU state machines, no GCM"),
    ("des_streams",
     "uncontended link-disjoint streams on all six topologies, raw fabric.inject, "
     "no NIU: bypasses what des_contended stresses"),
    ("quote_sweep",
     "one cold scoreboard/sweep/crossval quoting cycle per op in a forked child: "
     "schedule build, tuner planning, closed-form and cold DES quotes"),
    ("service_drain",
     "real 2-worker ensemble service: 20-job drains and single-job round trips; "
     "journal fsyncs, spool, spawn/reap dominate, compute is ms"),
]

#: ``gcm_reduced`` on the other two tiers: not part of the suite or the
#: manifest, run by name (``--workload gcm_reduced.analytic --trace 1``)
#: for the per-tier host-time table in ``perf/README.md``.
TIER_VARIANTS = ("gcm_reduced.analytic", "gcm_reduced.hybrid")

_GCM = "ops_per_s, op_ms_p50 @ gcm_reduced (and gcm_production, less)"
_DES = "ops_per_s @ des_contended, des_streams"
_QUOTE = "op_ms_p50 @ quote_sweep"
_SVC = "ops_per_s, op_ms_p50 @ service_drain"

PER_LAYER: List[Layer] = [
    # -- sim ----------------------------------------------------------------
    Layer("sim.run_share", "ratio", "lower", ("share", "sim.engine.run"),
          "event loop incl. fabric and NIU callbacks; " + _DES),
    Layer("sim.events_per_op", "count", "lower", ("count", "sim.engine.run", "events"),
          "exact; a fast-forward cuts it while ops_per_s @ des_* rises"),
    Layer("sim.us_per_event", "us", "lower", "probe", _DES),
    Layer("sim.bare_us_per_event", "us", "lower", "probe",
          "bounds what a heap/resume fix alone gives @ des_*"),
    # -- network ------------------------------------------------------------
    Layer("network.crossval_share", "ratio", "lower",
          ("share", "network.crossvalidate"), "ops_per_s @ des_streams"),
    Layer("network.crossval_self_share", "ratio", "lower",
          ("self_share", "network.crossvalidate"),
          "fabric build + packet injection outside the event loop @ des_streams"),
    Layer("network.packets_per_op", "count", "lower",
          ("count", "network.crossvalidate", "packets"), "exact @ des_streams"),
    Layer("network.us_per_packet_hop", "us", "lower", "probe",
          "ops_per_s @ des_streams"),
    Layer("network.us_per_packet_hop.fattree", "us", "lower", "probe",
          "ops_per_s @ des_streams, des_contended"),
    Layer("network.fabric_build_ms.n64", "ms", "lower", "probe",
          "setup_s and op_ms_p50 @ des_* (fresh fabric per op)"),
    Layer("network.fabric_build_ms.n1024", "ms", "lower", "probe",
          _QUOTE + " (cold DES quotes build clusters)"),
    # -- niu ----------------------------------------------------------------
    Layer("niu.pio_us_per_msg", "us", "lower", "probe",
          "ops_per_s @ des_contended; none @ des_streams"),
    Layer("niu.vi_us_per_kb", "us", "lower", "probe",
          "ops_per_s @ des_contended; none @ des_streams"),
    Layer("niu.reliable_us_per_kb", "us", "lower", "probe",
          "go-back-N data path; none end to end today"),
    # -- hardware -----------------------------------------------------------
    Layer("hardware.cluster_build_share", "ratio", "lower",
          ("share", "hardware.cluster_build"),
          "op_ms_p50 @ des_contended (fresh cluster per cycle)"),
    Layer("hardware.cluster_build_ms.n64", "ms", "lower", "probe",
          "op_ms_p50 @ des_contended"),
    # -- collectives --------------------------------------------------------
    Layer("collectives.schedule_build_share", "ratio", "lower",
          ("share", "collectives.schedule_build"), _QUOTE),
    Layer("collectives.plan_share", "ratio", "lower",
          ("share", "collectives.plan"), _QUOTE),
    Layer("collectives.des_exec_self_share", "ratio", "lower",
          ("self_share", "collectives.des_time_schedule"),
          "rank-process set-up outside the event loop @ des_contended"),
    Layer("collectives.msgs_per_op", "count", "lower",
          ("count", "collectives.des_time_schedule", "msgs"), "exact @ des_contended"),
    Layer("collectives.bytes_per_op", "count", "lower",
          ("count", "collectives.des_time_schedule", "bytes"), "exact @ des_contended"),
    Layer("collectives.schedule_build_ms", "ms", "lower", "probe", _QUOTE),
    Layer("collectives.plan_cold_ms", "ms", "lower", "probe", _QUOTE),
    Layer("collectives.plan_warm_us", "us", "lower", "probe",
          "ops_per_s @ gcm_* (tuned gsum quotes)"),
    # -- backend ------------------------------------------------------------
    Layer("backend.quote_share", "ratio", "lower", ("share", "backend.quote"),
          "ops_per_s @ gcm_reduced (expected small); " + _QUOTE),
    Layer("backend.quote_calls_per_op", "count", "lower",
          ("calls", "backend.quote"), "exact @ gcm_*"),
    Layer("backend.sweep_point_share", "ratio", "lower",
          ("share", "backend.sweep_point"), _QUOTE),
    Layer("backend.crossval_share", "ratio", "lower",
          ("share", "backend.run_crossval"), _QUOTE),
    Layer("backend.cold_quote_ms.des", "ms", "lower", "probe",
          _QUOTE + "; setup_s @ gcm_reduced"),
    Layer("backend.warm_quote_us.des", "us", "lower", "probe", "ops_per_s @ gcm_reduced"),
    Layer("backend.warm_quote_us.analytic", "us", "lower", "probe",
          "ops_per_s @ gcm_production"),
    Layer("backend.warm_quote_us.hybrid", "us", "lower", "probe", _QUOTE),
    # -- parallel -----------------------------------------------------------
    Layer("parallel.exchange_share", "ratio", "lower", ("share", "parallel.exchange"),
          "ops_per_s @ gcm_reduced (item 2c: batched halo exchange); small @ gcm_production"),
    Layer("parallel.exchange_self_share", "ratio", "lower",
          ("self_share", "parallel.exchange"),
          "pricing loop around the halo fill @ gcm_reduced"),
    Layer("parallel.halo_share", "ratio", "lower", ("share", "parallel.halo"),
          "ops_per_s @ gcm_reduced"),
    Layer("parallel.gsum_share", "ratio", "lower", ("share", "parallel.gsum"),
          "ops_per_s @ gcm_reduced"),
    Layer("parallel.exchange_calls_per_op", "count", "lower",
          ("calls", "parallel.exchange"), "exact @ gcm_*"),
    Layer("parallel.gsum_calls_per_op", "count", "lower",
          ("calls", "parallel.gsum"), "exact @ gcm_*"),
    Layer("parallel.halo_us_per_call", "us", "lower", "probe",
          "ops_per_s @ gcm_reduced"),
    # -- gcm ----------------------------------------------------------------
    Layer("gcm.step_share", "ratio", "lower", ("share", "gcm.step"), _GCM),
    Layer("gcm.step_self_share", "ratio", "lower", ("self_share", "gcm.step"),
          "the per-tile Python loop of Model.step; " + _GCM),
    Layer("gcm.step_atm_share", "ratio", "lower", ("share", "gcm.step#atm"), _GCM),
    Layer("gcm.step_ocn_share", "ratio", "lower", ("share", "gcm.step#ocn"), _GCM),
    Layer("gcm.g_terms_share", "ratio", "lower", ("share", "gcm.g_terms"), _GCM),
    Layer("gcm.cg_share", "ratio", "lower", ("share", "gcm.cg"), _GCM),
    Layer("gcm.coupler_share", "ratio", "lower", ("share", "gcm.coupler"), _GCM),
    Layer("gcm.cg_iters_per_op", "count", "lower", "workload", "exact @ gcm_*"),
    Layer("gcm.flops_per_op", "count", "lower", "workload", "exact @ gcm_*"),
    Layer("gcm.host_mflops", "Mflop/s", "higher", "workload",
          "flops the model charged / host seconds of the median op; " + _GCM),
    Layer("gcm.us_per_cell_step", "us", "lower", "probe",
          "reduced size on the analytic tier; should converge on "
          "op_ms_p50/cell-steps @ gcm_production if item 2 works"),
    Layer("gcm.ckpt_write_ms", "ms", "lower", "probe", "none end to end today"),
    Layer("gcm.ckpt_read_ms", "ms", "lower", "probe", "none end to end today"),
    # -- precision / recover / faults / obs -----------------------------------
    Layer("precision.wire32_step_ratio", "ratio", "lower", "probe",
          "codec cost today; ops_per_s @ gcm_reduced once compute runs float32 (item 2d)"),
    Layer("precision.wire_bytes_ratio", "ratio", "lower", "probe", "exact"),
    Layer("recover.ckpt_write_ms", "ms", "lower", "probe", "guards item 3d's merge"),
    Layer("recover.ckpt_restore_ms", "ms", "lower", "probe", "guards item 3d's merge"),
    Layer("faults.degraded_quote_ratio", "ratio", "lower", "probe",
          "backend.warm_quote_us.*; guards item 3a"),
    Layer("obs.des_tracer_on_ratio", "ratio", "lower", "probe",
          "nothing when off, which is the point"),
    Layer("obs.metrics_on_ratio", "ratio", "lower", "probe",
          "nothing when off, which is the point"),
    # -- core ---------------------------------------------------------------
    Layer("core.scoreboard_share", "ratio", "lower", ("share", "core.scoreboard"), _QUOTE),
    Layer("core.best_collectives_share", "ratio", "lower",
          ("share", "core.best_collectives"), _QUOTE),
    # -- service ------------------------------------------------------------
    Layer("service.journal_append_share", "ratio", "lower",
          ("share", "service.journal_append"), _SVC),
    Layer("service.journal_appends_per_op", "count", "lower",
          ("calls", "service.journal_append"), "exact per job @ service_drain"),
    Layer("service.serve_self_share", "ratio", "lower", ("self_share", "service.serve"),
          "the serve loop sleeping and polling while workers compute; " + _SVC),
    Layer("service.startup_share", "ratio", "lower", ("share", "service.startup"),
          "op_ms_p50 @ service_drain (replay of the drain's journal)"),
    Layer("service.spawn_share", "ratio", "lower", ("share", "service.spawn"), _SVC),
    Layer("service.poll_share", "ratio", "lower", ("share", "service.poll"), _SVC),
    Layer("service.ingest_share", "ratio", "lower", ("share", "service.ingest"), _SVC),
    Layer("service.retries", "count", "lower", "workload", "0 @ service_drain"),
    Layer("service.spawns_per_job", "count", "lower", "workload",
          "exactly 1 without retries @ service_drain"),
    Layer("service.overhead_share", "ratio", "lower", "workload",
          "share of a worker slot's time per drained job that is not the job's "
          "model compute (fork, heartbeats, checkpoints, journal, polling); "
          "ops_per_s @ service_drain"),
    Layer("service.worker_peak_rss_mb", "MB", "lower", "workload",
          "memory of one forked worker"),
    Layer("service.journal_append_us", "us", "lower", "probe", _SVC),
    Layer("service.journal_replay_us_per_record", "us", "lower", "probe",
          "op_ms_p50 @ service_drain"),
    Layer("service.startup_ms", "ms", "lower", "probe", "op_ms_p50 @ service_drain"),
    Layer("service.job_compute_ms", "ms", "lower", "probe",
          "the part of a job that is not service overhead"),
    # -- the benchmark itself -------------------------------------------------
    Layer("model_err_max", "ratio", "lower", "bench",
          "largest cheap-model vs packet-level error in the workload; "
          "deterministic, gated by the workload's band check"),
    Layer("trace.overhead_ratio", "ratio", "lower", "bench",
          "traced / untraced median op time in the same run"),
    Layer("trace.untraced_share", "ratio", "lower", "bench",
          "share of traced op time no span covers (benchmark glue + unlisted code)"),
    Layer("host.cpu_wall_ratio", "ratio", "higher", "bench",
          "CPU / wall over the timed ops: low = the host, not the code, was waiting"),
    Layer("host.speed_factor", "ratio", "lower", "bench",
          "median reference-kernel time / nominal in this run: >1 = the host was "
          "slower than the reference host; every reported op time is raw / factor"),
    Layer("host.raw_op_ms_p50", "ms", "lower", "bench",
          "median op time as the clock read it, before normalisation"),
    Layer("host.deprecation_warnings", "count", "lower", "bench",
          "DeprecationWarnings from repro or the benchmark; 0 = none of the "
          "spellings ROADMAP item 3 removes"),
    Layer("tail.op_ms_p90", "ms", "lower", "bench", "printed, not gated"),
]


LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` object."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def span_value(rule: Tuple[str, ...], summary: dict, op_seconds: float,
               ops: int, absent_keys: set) -> Optional[float]:
    """Evaluate one span rule against :meth:`perf.trace.Tracer.summary`."""
    kind, key = rule[0], rule[1]
    base = key.split("#")[0]
    if base in absent_keys:
        return None
    row = summary.get(key)
    if kind in ("share", "self_share"):
        if op_seconds <= 0:
            return None
        seconds = row["self_s" if kind == "self_share" else "incl_s"] if row else 0.0
        return seconds / op_seconds
    if ops <= 0:
        return None
    if kind == "calls":
        return (row["calls"] if row else 0) / ops
    if kind == "count":
        if row is None:
            return 0.0
        n = row["counts"].get(rule[2])
        return None if n is None else n / ops
    raise ValueError(f"unknown span rule {rule!r}")
