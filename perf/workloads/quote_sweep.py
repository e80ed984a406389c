"""``quote_sweep``: what a ``repro pfpp`` / ``repro backend`` user pays
per invocation.

One op is one *cold* quoting cycle, run in a forked child so that no
tuner, schedule or DES-quote cache survives from the previous op (the
interpreter start and the imports are in ``setup_s``, not here):

* ``topology_scoreboard`` at N=64 (a fresh autotuner per machine shape);
* ``large_sweep`` to N=4096 on the analytic tier and to N=1024 on the
  hybrid tier (closed-form pricing, butterfly schedules at 4096 ranks);
* ``best_collectives_table`` at N=16/64 (the process-wide default tuner,
  cold);
* ``sweep_point(n, "des")`` at N=16/64 (cold DES quotes: clusters are
  built and packets simulated);
* ``run_crossval(windows=1)`` — all three tiers on the Fig. 2 / 8 / 9
  workloads, which is also this workload's correctness gate.

Schedule construction, autotuner planning, closed-form pricing and cold
DES quotes — ``backend``, ``collectives``, ``core``, ``network`` — with
no GCM stepping beyond the crossval's two-window run.  ROADMAP item 3a
(one pricer) and any schedule or tuner caching show here; a cache that
only helps the second call in a process does not, by design.
"""

from __future__ import annotations

import hashlib
import json
import random

from perf.harness import Recorder, Workload, run_forked

SCOREBOARD_N = (64,)
ANALYTIC_N = (16, 64, 256, 1024, 4096)
HYBRID_N = (16, 64, 256, 1024)
BEST_COLLECTIVES_N = (16, 64)
DES_N = (16, 64)


class QuoteSweep(Workload):
    name = "quote_sweep"
    op = "one cold quoting cycle in a forked child"
    block_ops = 2

    def __init__(self, seed: int = 0, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        #: levels of the closed-form sweeps' reference tile: moves the
        #: message sizes the analytic tiers price, not the work they do.
        self.sweep_nz = random.Random(self.seed).choice((8, 10, 12))

    def prepare(self) -> None:
        import repro.backend
        import repro.core.pfpp

        # No warm-up op: every op is cold by construction, and a cycle
        # run here would warm the very caches the fork keeps cold.
        self._backend = repro.backend
        self._pfpp = repro.core.pfpp

    def _cycle(self) -> dict:
        be, pfpp = self._backend, self._pfpp
        board = pfpp.topology_scoreboard(n_values=SCOREBOARD_N)
        sweeps = [
            be.large_sweep(ANALYTIC_N, backend="analytic", nz=self.sweep_nz),
            be.large_sweep(HYBRID_N, backend="hybrid", nz=self.sweep_nz),
        ]
        best = pfpp.best_collectives_table(BEST_COLLECTIVES_N)
        des = be.resolve_backend("des")
        des_rows = [be.sweep_point(n, des) for n in DES_N]
        crossval = be.run_crossval(windows=1)
        quotes = {
            "scoreboard": [[r.topology, r.n_nodes, r.gsum_algorithm, r.tgsum,
                            r.texchxy, r.texchxyz] for r in board],
            "sweeps": [
                [[r["n_nodes"], r["tgsum_s"], r["texchxy_s"], r["texchxyz_s"]]
                 for r in sweep["rows"]]
                for sweep in sweeps
            ],
            "best": [[r.n_nodes, r.gsum_algorithm, r.tgsum] for r in best],
            "des": [[r["n_nodes"], r["tgsum_s"], r["texchxy_s"], r["texchxyz_s"]]
                    for r in des_rows],
            "crossval": [[c["workload"], c["quantity"], c["des_s"], c["analytic_s"],
                          c["hybrid_s"]] for c in crossval["checks"]],
        }
        canon = json.dumps(quotes, sort_keys=True)
        return {
            "quotes_sha1": hashlib.sha1(canon.encode()).hexdigest(),
            "crossval_passed": crossval["passed"],
            "crossval_bit_exact": crossval["bit_exact"],
            "crossval_max_rel_err": crossval["max_rel_err"],
            "crossval_tolerance": crossval["tolerance"],
            "des_simulations": des.describe().get("simulations"),
        }

    def block(self, rec: Recorder) -> None:
        tracer = rec.tracer if rec.tracing else None
        for _ in range(self.n_ops):
            out = rec.timed(lambda: run_forked(self._cycle, tracer))
            if out is None:
                continue
            if not (out["crossval_passed"] and out["crossval_bit_exact"]):
                rec.fail_ops(1, "run_crossval inside its band and bit-exact", str(out))
            rec.same_every_block("quotes_sha1", out["quotes_sha1"])
            rec.same_every_block("des_simulations", out["des_simulations"])
            rec.counts["crossval_max_rel_err"] = out["crossval_max_rel_err"]

    def finish(self, rec: Recorder) -> None:
        if "crossval_max_rel_err" in rec.counts:
            rec.model_error(rec.counts["crossval_max_rel_err"])
