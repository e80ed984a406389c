"""The fidelity-switchable backend: what the cheap tiers give up, and
what the packet-exact tier costs — both in host-independent units.

1. **The cheap tiers are honest.**  ``repro.backend.run_crossval``
   replays the Fig. 2 / Fig. 8 / Fig. 9 workloads on all three tiers
   and asserts the analytic and hybrid quotes sit within the 5 % band
   of the packet-exact DES quotes — with bit-identical GCM state
   digests, since fidelity only changes *when* phases are charged,
   never *what* the model computes.  The Fig. 9 coupled run is repeated
   here per tier and on the wire-coupled DES path: one digest, and each
   tier's virtual elapsed time beside the DES tier's.

2. **The DES tier's price grows with N; the closed forms' does not.**
   The weak-scaling sweep of Fig. 11 is quoted by the analytic and
   hybrid tiers out to N = 4096 and by the DES tier up to N = 1024,
   with the number of packet simulations and engine events each DES
   point dispatched (``DESBackend.describe()``).  Event counts are the
   deterministic form of the blow-up argument; what an event costs this
   host is ``perf/``'s number (``quote_sweep``, ``sim.us_per_event``).

Results land in ``benchmarks/out/BENCH_backend.json``.
"""

from repro.backend import resolve_backend, run_crossval, sweep_point
from repro.gcm.coupled import coupled_model
from repro.service.jobs import model_digest

from _tables import emit, emit_bench, format_table

#: The Fig. 9 reduced coupled configuration (same as bench_fig09_coupled).
FIG09 = dict(
    nx=32, ny=16, nz_atm=5, nz_ocn=8, px=2, py=2, dt=300.0, coupling_interval=2
)
WINDOWS = 3

#: Weak-scaling sweep points; DES is attempted only up to the feasibility
#: cutoff (N = 4096 completes, but at ~170 MB and tens of host seconds).
SWEEP_N_VALUES = (16, 256, 1024, 4096)
DES_FEASIBLE_MAX_N = 1024


def run_des_reliable_fig09(windows=WINDOWS):
    """The Fig. 9 wire-coupled DES path: coupling fields on the reliable wire."""
    from repro.hardware.cluster import HyadesCluster, HyadesConfig

    cluster = HyadesCluster(HyadesConfig(n_nodes=FIG09["px"] * FIG09["py"]))
    cm = coupled_model(cluster=cluster, **FIG09)
    cm.run(windows)
    return cm, cluster.engine.events_executed


def run_tier_fig09(backend, windows=WINDOWS):
    """Fig. 9 coupled run with phase costs quoted by ``backend``."""
    cm = coupled_model(backend=backend, **FIG09)
    cm.run(windows)
    return cm


def _digest(cm):
    return model_digest(cm.atmosphere) + "+" + model_digest(cm.ocean)


def sweep_rows():
    """Per-tier quotes, error vs DES and the DES price over the sweep."""
    rows = []
    for n in SWEEP_N_VALUES:
        row = {"n_nodes": n}
        des_row = None
        if n <= DES_FEASIBLE_MAX_N:
            des = resolve_backend("des")  # fresh: every quote is a cache miss
            des_row = sweep_point(n, des)
            price = des.describe()
            row["des_tgsum_s"] = des_row["tgsum_s"]
            row["des_texchxyz_s"] = des_row["texchxyz_s"]
            row["des_simulations"] = price["simulations"]
            row["des_events"] = price["events"]
        for tier in ("analytic", "hybrid"):
            r = sweep_point(n, resolve_backend(tier))
            row[f"{tier}_tgsum_s"] = r["tgsum_s"]
            row[f"{tier}_texchxyz_s"] = r["texchxyz_s"]
            if des_row is not None:
                for q in ("tgsum", "texchxyz"):
                    row[f"{tier}_rel_err_{q}"] = (
                        abs(r[f"{q}_s"] - des_row[f"{q}_s"]) / des_row[f"{q}_s"]
                    )
        rows.append(row)
    return rows


def test_bench_backend_tiers():
    """One digest on every path, the 5 % band, N = 4096 quoted."""
    tiers = {tier: run_tier_fig09(tier) for tier in ("des", "analytic", "hybrid")}
    wire_cm, wire_events = run_des_reliable_fig09()
    # fidelity never touches state: every path lands on one digest
    assert {_digest(cm) for cm in tiers.values()} == {_digest(wire_cm)}
    elapsed = {tier: cm.elapsed for tier, cm in tiers.items()}
    des_price = tiers["des"].backends()[0].describe()
    # -- cross-validation gate ----------------------------------------
    report = run_crossval(windows=2)
    assert report["passed"], f"crossval gate failed: {report}"
    # -- large-N sweep ------------------------------------------------
    rows = sweep_rows()
    assert rows[-1]["n_nodes"] == 4096 and rows[-1]["analytic_tgsum_s"] > 0
    feasible = [r for r in rows if "des_events" in r]
    # the argument for the cheap tiers: DES events grow with N
    assert [r["des_events"] for r in feasible] == sorted(r["des_events"] for r in feasible)
    emit(
        "backend_tiers",
        format_table(
            "Fidelity tiers - Fig. 9 virtual time and the large-N sweep",
            ["quantity", "value", "context"],
            [
                *[
                    [f"{tier} tier, fig09 elapsed", f"{elapsed[tier] * 1e3:.3f} ms",
                     f"{(elapsed[tier] / elapsed['des'] - 1) * 100:+.2f} % vs des tier"]
                    for tier in ("des", "analytic", "hybrid")
                ],
                ["des tier, fig09 price", f"{des_price['events']} events",
                 f"{des_price['simulations']} memoized packet simulations"],
                ["wire-coupled DES run", f"{wire_events} events", "same digest"],
                ["crossval max err", f"{report['max_rel_err'] * 100:.2f} %", "<= 5 % band"],
                *[
                    [f"sweep N={r['n_nodes']} tgsum", f"{r['analytic_tgsum_s'] * 1e6:.2f} us",
                     f"DES {r['des_tgsum_s'] * 1e6:.2f} us, {r['des_events']} events"
                     if "des_events" in r else "DES not run"]
                    for r in rows
                ],
            ],
        ),
    )
    emit_bench(
        "backend",
        virtual_time_s=elapsed["hybrid"],
        model_error={"crossval_max_rel_err": report["max_rel_err"]},
        data={
            "fig09": {
                "windows": WINDOWS,
                "tier_elapsed_s": elapsed,
                "des_tier_simulations": des_price["simulations"],
                "des_tier_events": des_price["events"],
                "wire_coupled_des_events": wire_events,
                "digests_bit_exact": True,
            },
            "crossval": {
                "n_checks": report["n_checks"],
                "max_rel_err": report["max_rel_err"],
                "bit_exact": report["bit_exact"],
            },
            "sweep": rows,
            "des_feasible_max_n": DES_FEASIBLE_MAX_N,
        },
        units={"virtual_time_s": "BSP critical-path seconds"},
    )
