"""Recovery machinery priced in virtual time.

Two questions the self-healing runtime must answer quantitatively:

1. **What does surviving a crash cost?**  Sweep the checkpoint interval
   K: frequent checkpoints pay more steady-state tax but lose less
   recompute when a node dies; sparse checkpoints are cheap until the
   rollback bill arrives.  Every point recovers bit-exactly from the
   same mid-run crash.
2. **What does merely *arming* detection cost?**  The heartbeat beacons
   share the HIGH-priority network with coupling traffic; comparing a
   fault-free coupled run with and without the recovery runtime armed
   bounds the steady-state throughput tax.

Results land in ``benchmarks/out/BENCH_recovery.json`` (machine-readable)
and ``benchmarks/out/recovery_overhead.txt`` (the table).
"""

from repro.faults import run_crash_recovery_demo
from repro.gcm.coupled import DEMO_SHAPE, coupled_model
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.recover import RecoveryConfig

from _tables import emit, emit_bench, format_table

WINDOWS = 4


def overhead_vs_interval(intervals=(1, 2, 3)):
    """One recovered crash per checkpoint interval K."""
    rows = []
    for k in intervals:
        res = run_crash_recovery_demo(windows=WINDOWS, checkpoint_interval=k)
        assert res.error is None, res.error
        assert res.bit_exact
        rows.append(
            {
                "interval": k,
                "bit_exact": res.bit_exact,
                "detection_latency_s": res.detection_latency,
                "restored_window": res.restored_window,
                "checkpoint_tax_s": res.checkpoint_tax,
                "rollback_cost_s": res.rollback_cost,
                "recompute_cost_s": res.recompute_cost,
                "total_overhead_s": res.total_overhead,
                "clean_run_s": res.engine_time_clean,
            }
        )
    return rows


def heartbeat_tax(windows=3):
    """Fault-free coupled run: dense beacons vs beacons effectively off.

    Both runs use the identical recovery runtime (same phase machinery,
    same checkpoints); only the beacon period differs — 50 us (the
    production detector) against 2 ms (a handful of beacons per run) —
    so the virtual-time delta isolates the detection traffic's CPU and
    HIGH-priority wire contention.
    """
    from repro.recover import HeartbeatConfig

    def run(period, timeout):
        cluster = HyadesCluster(HyadesConfig(n_nodes=4))
        model = coupled_model(
            cluster=cluster,
            recovery=RecoveryConfig(
                heartbeat=HeartbeatConfig(period=period, timeout=timeout)
            ),
            **DEMO_SHAPE,
        )
        model.run(windows)
        rep = model.recovery.overhead_report()
        return cluster.engine.now - rep["checkpoint_des_seconds"], rep

    t_off, _ = run(period=2e-3, timeout=10e-3)
    t_on, rep_on = run(period=50e-6, timeout=250e-6)
    return {
        "windows": windows,
        "beacons_off_s": t_off,
        "beacons_on_s": t_on,
        "heartbeat_tax_pct": 100.0 * (t_on - t_off) / t_off,
        "checkpoint_tax_s": rep_on["checkpoint_des_seconds"],
        "beacons_sent": rep_on["heartbeat"]["beacons_sent"],
    }


def test_bench_recovery_overhead():
    sweep = overhead_vs_interval()
    hb = heartbeat_tax()

    table = [
        [
            r["interval"],
            f"{r['detection_latency_s'] * 1e6:.0f}",
            r["restored_window"],
            f"{r['checkpoint_tax_s'] * 1e3:.2f}",
            f"{r['rollback_cost_s'] * 1e3:.2f}",
            f"{r['recompute_cost_s'] * 1e3:.2f}",
            f"{r['total_overhead_s'] * 1e3:.2f}",
            str(r["bit_exact"]),
        ]
        for r in sweep
    ]
    table.append(
        [
            "hb tax",
            "-",
            "-",
            f"{hb['checkpoint_tax_s'] * 1e3:.2f}",
            "-",
            "-",
            f"{hb['heartbeat_tax_pct']:+.2f}%",
            "-",
        ]
    )
    emit(
        "recovery_overhead",
        format_table(
            f"Self-healing overhead vs checkpoint interval K ({WINDOWS} windows, 1 crash)",
            ["K", "detect (us)", "rollback to w", "ckpt tax (ms)",
             "rollback (ms)", "recompute (ms)", "total (ms)", "bit-exact"],
            table,
        ),
    )
    emit_bench(
        "recovery",
        virtual_time_s=sweep[0]["clean_run_s"],
        model_error={"heartbeat_tax": hb["heartbeat_tax_pct"] / 100.0},
        data={"overhead_vs_interval": sweep, "heartbeat_tax": hb},
        units={"virtual_time_s": "clean K=1 run, DES seconds"},
    )

    # Sanity: every crash recovered bit-exactly; detection is bounded.
    assert all(r["bit_exact"] for r in sweep)
    assert all(0 < r["detection_latency_s"] < 1e-3 for r in sweep)
    # Steady-state heartbeat tax stays small (well under 20 %).
    assert abs(hb["heartbeat_tax_pct"]) < 20.0
