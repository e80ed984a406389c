"""Cross-architecture PFPP scoreboard over the topology zoo.

Two claims of the topology layer, both measured live here:

1. **The scoreboard covers the zoo.**  ``topology_scoreboard`` prices
   the paper's PFPP figures of merit (eqs. 14-15: the per-second and
   per-day interconnect ceilings) on every registered machine shape —
   the Arctic fat tree, 2-D/3-D tori, the CP-PACS hyper-crossbar and
   the shared-Ethernet PMS baseline — at N = 256 / 1024 / 4096 on the
   analytic tier, with the global grid weak-scaled past N = 256 so the
   rows stay comparable.

2. **Every analytic fabric model is anchored to packets.**  At N = 16
   each topology's DES fabric replays a link-disjoint pairwise stream
   and the analytic prediction must land within the 10 % acceptance
   band of the simulated time (in practice the closed forms are exact).

Results land in ``benchmarks/out/BENCH_topology.json``.
"""

from repro.core.pfpp import topology_scoreboard
from repro.network.topology import (
    SCOREBOARD_TOPOLOGIES,
    crossvalidate_topology,
    make_topology,
)

from _tables import emit, emit_bench, format_table

#: Node counts of the analytic scoreboard (weak-scaled past 256).
SCOREBOARD_N = (256, 1024, 4096)
#: DES cross-validation size and acceptance band.
CROSSVAL_N = 16
CROSSVAL_GATE = 0.10


def test_bench_topology_pfpp():
    """Scoreboard coverage + the per-topology DES anchoring gate."""
    rows = topology_scoreboard(
        topologies=SCOREBOARD_TOPOLOGIES, n_values=SCOREBOARD_N
    )

    # -- coverage: every topology priced at every N --------------------
    assert {r.topology for r in rows} == set(SCOREBOARD_TOPOLOGIES)
    assert {r.n_nodes for r in rows} == set(SCOREBOARD_N)
    assert len(rows) == len(SCOREBOARD_TOPOLOGIES) * len(SCOREBOARD_N)
    for r in rows:
        assert r.tgsum > 0 and r.texchxy > 0 and r.texchxyz > 0
        assert r.pfpp_ps > 0 and r.pfpp_ds > 0

    # -- DES cross-validation at N=16, one fabric per topology ---------
    crossval = {}
    for name in SCOREBOARD_TOPOLOGIES:
        cv = crossvalidate_topology(make_topology(name, CROSSVAL_N))
        assert cv["rel_err"] <= CROSSVAL_GATE, (
            f"{name}: DES {cv['des_s'] * 1e6:.2f}us vs model "
            f"{cv['predicted_s'] * 1e6:.2f}us = "
            f"{cv['rel_err']:.1%} > {CROSSVAL_GATE:.0%}"
        )
        crossval[name] = cv

    emit(
        "topology_pfpp",
        format_table(
            f"Cross-architecture PFPP scoreboard (N={max(SCOREBOARD_N)})"
            " + DES anchoring at N=16",
            ["topology", "Pfpp,ps", "Pfpp,ds", "hops", "bisect", "crossval err"],
            [
                [
                    r.topology,
                    f"{r.pfpp_ps / 1e6:.1f} MF",
                    f"{r.pfpp_ds / 1e6:.2f} MF",
                    r.max_hops,
                    f"{r.bisection_bandwidth / 1e9:.1f} GB/s",
                    f"{crossval[r.topology]['rel_err']:.2%}",
                ]
                for r in rows
                if r.n_nodes == max(SCOREBOARD_N)
            ],
        ),
    )
    emit_bench(
        "topology",
        virtual_time_s=sum(cv["des_s"] for cv in crossval.values()),
        model_error={
            f"crossval_{name}": cv["rel_err"] for name, cv in crossval.items()
        },
        data={
            "scoreboard_n": list(SCOREBOARD_N),
            "crossval_n": CROSSVAL_N,
            "crossval_gate": CROSSVAL_GATE,
            "rows": [
                {
                    "topology": r.topology,
                    "n_nodes": r.n_nodes,
                    "grid": list(r.grid),
                    "gsum_algorithm": r.gsum_algorithm,
                    "tgsum_s": r.tgsum,
                    "texchxy_s": r.texchxy,
                    "texchxyz_s": r.texchxyz,
                    "pfpp_ps": r.pfpp_ps,
                    "pfpp_ds": r.pfpp_ds,
                    "max_hops": r.max_hops,
                    "bisection_bandwidth": r.bisection_bandwidth,
                    "area_scale": r.area_scale,
                }
                for r in rows
            ],
            "crossval": {
                name: {
                    "des_s": cv["des_s"],
                    "predicted_s": cv["predicted_s"],
                    "rel_err": cv["rel_err"],
                    "packets": cv["packets"],
                }
                for name, cv in crossval.items()
            },
        },
        units={"virtual_time_s": "DES fabric seconds (crossval streams)"},
    )
