"""``des_streams``: uncontended cut-through streams with no NIU.

One pass runs :func:`repro.network.topology.crossvalidate_topology` on
every registered topology at N=64: each endpoint streams packets to a
partner over link-disjoint paths via raw ``fabric.inject`` (the shared
Ethernet hub serializes, by construction).  This is the only pattern
the repository's "0.00 % vs DES" is measured on, so ``model_err_max``
is its ``rel_err``.

It is the counterpart of ``des_contended``: an analytic fast-forward
for uncontended paths should win here and do nothing there; an NIU
optimisation the reverse.
"""

from __future__ import annotations

import random

from perf.harness import Recorder, Workload

N_ENDPOINTS = 64
PACKETS_PER_PAIR = 8


class DesStreams(Workload):
    name = "des_streams"
    op = "one pass: crossvalidate_topology on every registered topology at N=64"
    block_ops = 3
    #: closed-form cut-through prediction vs the DES on disjoint paths.
    BAND = 0.001

    def __init__(self, seed: int = 0, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        #: fabric seed (random up-routing on the fat tree).
        self.fabric_seed = random.Random(self.seed).randrange(1 << 16)

    def prepare(self) -> None:
        import repro.network.topology

        # the module, not the functions: a traced run rebinds the names
        self._topology = repro.network.topology
        self.names = self._topology.topology_names()
        self._pass()  # warm-up

    def _pass(self) -> list:
        return [
            self._topology.crossvalidate_topology(
                self._topology.make_topology(name, N_ENDPOINTS),
                packets_per_pair=PACKETS_PER_PAIR, seed=self.fabric_seed,
            )
            for name in self.names
        ]

    def block(self, rec: Recorder) -> None:
        for _ in range(self.n_ops):
            results = rec.timed(self._pass)
            if results is None:
                continue
            # crossvalidate_topology raises unless every packet arrived
            rec.same_every_block("virtual_s", {r["topology"]: r["des_s"] for r in results})
            rec.same_every_block("packets_per_pass", sum(r["packets"] for r in results))
            rec.counts["rel_err"] = {r["topology"]: r["rel_err"] for r in results}

    def finish(self, rec: Recorder) -> None:
        for rel in rec.counts.get("rel_err", {}).values():
            rec.model_error(rel)
        rec.check(
            f"closed-form stream time within {self.BAND:.1%} of the DES",
            rec.model_err_n > 0 and rec.model_err_max <= self.BAND,
            str(rec.counts.get("rel_err")),
        )
