"""Automated mixed-precision tuning: search trajectory + PFPP shift.

Three claims of the precision subsystem, measured live here:

1. **The accuracy-gated search converges and is non-trivial.**  From a
   pure-float32 start the ddmin bisection reverts the *fewest* groups
   back to float64 that pass the SST / kinetic-energy / overturning
   gates against the float64 baseline (smoke-scale coupled run).  The
   trajectory must show at least one failing candidate (the gates do
   real work) and the tuned config must pass every gate.

2. **The tuned config halves the wire.**  Exchange + gsum payloads at
   float32 cut the statically-accounted wire bytes by >= 50 % — the
   acceptance criterion of the subsystem.

3. **Cheaper wires move the PFPP scoreboard.**  Re-pricing the
   analytic scoreboard at the tuned config's wire itemsizes must raise
   the per-second PFPP ceiling on the fat tree and the shared-Ethernet
   baseline (the two extremes of the zoo).  The shared-medium caveat —
   its mpi-fit gsum is byte-insensitive — is visible in the data: only
   the exchange terms shrink there.

Results land in ``benchmarks/out/BENCH_precision.json``.
"""

from repro.core.pfpp import topology_scoreboard
from repro.precision.search import tune_precision, wire_byte_reduction

from _tables import emit, emit_bench, format_table

#: The two scoreboard extremes re-priced under the tuned config.
PFPP_TOPOLOGIES = ("fattree", "ethernet")
PFPP_N = 256
#: Acceptance floor on the exchange+gsum wire-byte reduction.
REDUCTION_GATE = 0.50


def test_bench_precision():
    """Search convergence + wire-byte reduction + PFPP shift."""
    result = tune_precision(smoke=True)  # inline evaluation, smoke scale

    # -- claim 1: converged, gated, non-trivial -------------------------
    assert result["passed"], f"tuned config fails gates: {result['final_report']}"
    trajectory = result["trajectory"]
    assert any(not step["passed"] for step in trajectory), (
        "every candidate passed - the gates are vacuous at this tolerance"
    )
    assert result["n_evaluations"] >= 3

    # -- claim 2: >= 50% of exchange+gsum wire bytes gone ---------------
    wire = result["wire"]
    assert wire["reduction"] >= REDUCTION_GATE, (
        f"wire-byte reduction {wire['reduction']:.0%} < {REDUCTION_GATE:.0%}"
    )

    # -- claim 3: the scoreboard moves under the tuned wire -------------
    from repro.precision import PrecisionConfig

    tuned = PrecisionConfig.from_dict(result["tuned"])
    kwargs = tuned.scoreboard_args()
    base = topology_scoreboard(topologies=PFPP_TOPOLOGIES, n_values=(PFPP_N,))
    mixed = topology_scoreboard(
        topologies=PFPP_TOPOLOGIES, n_values=(PFPP_N,),
        precision="tuned", **kwargs,
    )
    pfpp_shift = {}
    for b, m in zip(base, mixed):
        assert m.pfpp_ps > b.pfpp_ps, (
            f"{b.topology}: tuned wire does not raise Pfpp,ps "
            f"({m.pfpp_ps / 1e6:.1f}M <= {b.pfpp_ps / 1e6:.1f}M)"
        )
        pfpp_shift[b.topology] = {
            "n_nodes": b.n_nodes,
            "pfpp_ps_all64": b.pfpp_ps,
            "pfpp_ps_tuned": m.pfpp_ps,
            "pfpp_ds_all64": b.pfpp_ds,
            "pfpp_ds_tuned": m.pfpp_ds,
            "speedup_ps": m.pfpp_ps / b.pfpp_ps,
            "speedup_ds": m.pfpp_ds / b.pfpp_ds,
        }

    report = result["final_report"]
    emit(
        "precision",
        format_table(
            f"Mixed-precision tuning ({result['n_evaluations']} candidates, "
            f"{wire['reduction']:.0%} wire-byte reduction)",
            ["quantity", "value", "gate"],
            [
                ["reverted to float64",
                 ", ".join(result["reverted_groups"]) or "(nothing)", ""],
                *[
                    [f"rel-err {k}", f"{report['errors'][k]:.3e}",
                     f"<= {report['tolerances'][k]:.1e}"]
                    for k in sorted(report["errors"])
                ],
                *[
                    [f"Pfpp,ps {t} (N={PFPP_N})",
                     f"{s['pfpp_ps_tuned'] / 1e6:.1f} MF",
                     f"> {s['pfpp_ps_all64'] / 1e6:.1f} MF (all64)"]
                    for t, s in pfpp_shift.items()
                ],
            ],
        ),
    )
    emit_bench(
        "precision",
        model_error={
            f"rel_err_{k}": v for k, v in report["errors"].items()
        },
        data={
            "smoke": result["smoke"],
            "n_evaluations": result["n_evaluations"],
            "trajectory": trajectory,
            "reverted_groups": result["reverted_groups"],
            "tuned": result["tuned"],
            "tolerances": result["tolerances"],
            "wire": wire,
            "wire_reference": wire_byte_reduction(tuned, smoke=False),
            "reduction_gate": REDUCTION_GATE,
            "pfpp_shift": pfpp_shift,
        },
        units={"model_error": "relative L2 error vs float64 baseline"},
    )
