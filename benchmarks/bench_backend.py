"""The fidelity-switchable backend priced in host wall-clock.

Two claims the backend API makes, both measured live here:

1. **The cheap tiers are honest.**  ``repro.backend.run_crossval``
   replays the Fig. 2 / Fig. 8 / Fig. 9 workloads on all three tiers
   and asserts the analytic and hybrid quotes sit within the 5 % band
   of the packet-exact DES quotes — with bit-identical GCM state
   digests, since fidelity only changes *when* phases are charged,
   never *what* the model computes.

2. **The cheap tiers are fast.**  The Fig. 9 coupled benchmark on the
   analytic tier must beat the *seed* DES path by >= 10x wall-clock.
   The seed path is reconstructed live (not quoted from a stale
   number): before the backend API existed, packet-exact phase costs
   could only come from running the DES fabric fresh for every quote
   (exactly how the seed's fig02/fig08 benchmarks price collectives —
   no memoization anywhere), so the baseline couples
   :class:`ColdDESBackend` (fresh simulation per quote) with
   :func:`seed_hot_paths`, which temporarily restores the
   pre-optimization kernels — ``np.roll`` shifted views, unfused face
   divergences, the per-tile CG reference loop, the event loop that
   re-read the tracer hook on every event, and the generator-process
   link transmitter with its table-driven CRC (the test suite's
   differential oracles).  Both sides of the ratio run on the same
   host in the same process.

The large-N story lands in the same record: the weak-scaling sweep of
Fig. 11 reaches N = 4096 in milliseconds on the analytic tier, while
the DES tier is measured up to N = 1024, where a sweep point still
costs seconds (its wall-clock growth across those points is the
argument for the cheap tiers, made quantitatively).

Results land in ``benchmarks/out/BENCH_backend.json``.
"""

import contextlib
import heapq
import pathlib
import sys
import time

import numpy as np

from repro.backend import resolve_backend, run_crossval, sweep_point
from repro.backend.des import DESBackend
from repro.gcm.coupled import coupled_model
from repro.service.jobs import model_digest

from _emit import emit_bench
from _tables import emit, format_table

# the seed's link, CRC and per-tile CG loop live on as the test suite's oracles
_TESTS = pathlib.Path(__file__).resolve().parent.parent / "tests"
sys.path[:0] = [str(_TESTS / "network"), str(_TESTS / "gcm")]
import _reference_crc  # noqa: E402
from _reference_cg import reference_cg  # noqa: E402
from _reference_link import ReferenceLink  # noqa: E402

#: The Fig. 9 reduced coupled configuration (same as bench_fig09_coupled).
FIG09 = dict(
    nx=32, ny=16, nz_atm=5, nz_ocn=8, px=2, py=2, dt=300.0, coupling_interval=2
)
WINDOWS = 3

#: Weak-scaling sweep points; DES is attempted only up to the feasibility
#: cutoff (N = 1024 costs ~2 s of host time per point, N = 4096 ~20 s
#: and 170 MB — it completes, but not inside a CI record).
SWEEP_N_VALUES = (16, 256, 1024, 4096)
DES_FEASIBLE_MAX_N = 1024

#: The acceptance floor: analytic tier vs the seed DES path on Fig. 9.
SPEEDUP_FLOOR = 10.0


class ColdDESBackend(DESBackend):
    """Seed-faithful DES quoting: a fresh packet simulation per query.

    The memoized quote cache is the backend API's contribution; the
    seed revision re-ran the fabric for every measurement, which is
    what this subclass reproduces by clearing the memo before each
    quote.
    """

    def exchange_time(self, edge_bytes, mixmode=False, n_ranks=1):
        """Uncached exchange quote (fresh simulation)."""
        self._pair.clear()
        self._gsum.clear()
        return super().exchange_time(edge_bytes, mixmode=mixmode, n_ranks=n_ranks)

    def gsum_time(self, n_nodes, nbytes=8, smp=False):
        """Uncached global-sum quote (fresh simulation)."""
        self._pair.clear()
        self._gsum.clear()
        return super().gsum_time(n_nodes, nbytes, smp=smp)

    def barrier_time(self, n_nodes):
        """Uncached barrier quote (fresh simulation)."""
        self._pair.clear()
        self._gsum.clear()
        return super().barrier_time(n_nodes)


@contextlib.contextmanager
def seed_hot_paths():
    """Temporarily restore the seed revision's hot paths.

    Every GCM kernel reads the stencil operators as module attributes
    (``op.xm`` etc.), so rebinding them here is enough to put the whole
    model back on the seed arithmetic: ``np.roll`` shifted views (same
    wrap semantics, extra full-array temporaries) and the unfused face
    divergence.  The CG solver is swapped for its per-tile reference
    loop, the DES dispatch loop is restored to the peek-then-pop form
    that re-read the tracer hook on every event, and every fabric is
    built from the generator-process link with the table-driven CRC.
    All results are bit-identical either way — only wall-clock moves.
    """
    from repro.gcm import operators as op
    from repro.gcm import timestepper
    from repro.network import fabrics, packet
    from repro.obs import trace as obs_trace
    from repro.sim.engine import DeadlockError, Engine

    def xm(a):
        """Seed shifted view: value at i-1 via np.roll."""
        return np.roll(a, 1, axis=-1)

    def xp(a):
        """Seed shifted view: value at i+1 via np.roll."""
        return np.roll(a, -1, axis=-1)

    def ym(a):
        """Seed shifted view: value at j-1 via np.roll."""
        return np.roll(a, 1, axis=-2)

    def yp(a):
        """Seed shifted view: value at j+1 via np.roll."""
        return np.roll(a, -1, axis=-2)

    def face_divergence(fx, fy):
        """Seed (unfused) face divergence: one temporary per term."""
        return (op.xp(fx) - fx) + (op.yp(fy) - fy)

    def seed_run(self, until=None, max_events=None, watchdog=False, stop_when=None):
        """The seed revision's dispatch loop (peek first, tracer every event)."""
        hit_cap = False
        while self._heap:
            if stop_when is not None and stop_when():
                return self._now
            when, _seq, fn, args = self._heap[0]
            if until is not None and when > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = when
            self._nevents += 1
            fn(*args)
            tr = obs_trace.TRACER
            if tr is not None and self._nevents % 64 == 0:
                tr.counter(
                    "engine",
                    "events",
                    self._now,
                    {"pending": len(self._heap), "executed": self._nevents},
                )
            if max_events is not None and self._nevents >= max_events:
                hit_cap = True
                break
        if watchdog and not self._heap and not hit_cap:
            if not (stop_when is not None and stop_when()):
                blocked = self.blocked_processes()
                if blocked:
                    raise DeadlockError(blocked, crashed=self.crashed_nodes)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    saved_ops = (op.xm, op.xp, op.ym, op.yp, op.face_divergence)
    saved_run = Engine.run
    saved_cg = timestepper.preconditioned_cg
    saved_net = (fabrics.Link, packet.crc16_words)
    op.xm, op.xp, op.ym, op.yp = xm, xp, ym, yp
    op.face_divergence = face_divergence
    Engine.run = seed_run
    timestepper.preconditioned_cg = reference_cg
    fabrics.Link, packet.crc16_words = ReferenceLink, _reference_crc.crc16_words
    try:
        yield
    finally:
        op.xm, op.xp, op.ym, op.yp, op.face_divergence = saved_ops
        Engine.run = saved_run
        timestepper.preconditioned_cg = saved_cg
        fabrics.Link, packet.crc16_words = saved_net


def run_des_reliable_fig09(windows=WINDOWS):
    """The seed's Fig. 9 DES path: coupling fields on the reliable wire."""
    from repro.gcm.atmosphere import atmosphere_model
    from repro.gcm.coupled import CouplerParams, DESCoupledModel
    from repro.gcm.ocean import ocean_model
    from repro.hardware.cluster import HyadesCluster, HyadesConfig

    cluster = HyadesCluster(HyadesConfig(n_nodes=FIG09["px"] * FIG09["py"]))
    atm = atmosphere_model(
        nx=FIG09["nx"], ny=FIG09["ny"], nz=FIG09["nz_atm"],
        px=FIG09["px"], py=FIG09["py"], dt=FIG09["dt"],
    )
    ocn = ocean_model(
        nx=FIG09["nx"], ny=FIG09["ny"], nz=FIG09["nz_ocn"],
        px=FIG09["px"], py=FIG09["py"], dt=FIG09["dt"],
    )
    cm = DESCoupledModel(
        atm, ocn, cluster,
        CouplerParams(coupling_interval=FIG09["coupling_interval"]),
        reliable=True,
    )
    cm.run(windows)
    return cm


def run_tier_fig09(backend, windows=WINDOWS):
    """Fig. 9 coupled run with phase costs quoted by ``backend``."""
    cm = coupled_model(backend=backend, **FIG09)
    cm.run(windows)
    return cm


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _digest(cm):
    return model_digest(cm.atmosphere) + "+" + model_digest(cm.ocean)


def sweep_rows():
    """Per-tier wall-clock and error-vs-DES over the weak-scaling sweep."""
    rows = []
    for n in SWEEP_N_VALUES:
        row = {"n_nodes": n}
        des_row = None
        if n <= DES_FEASIBLE_MAX_N:
            des_row = sweep_point(n, resolve_backend("des"))
            row["des_wall_s"] = des_row["wall_s"]
        else:
            row["des_wall_s"] = None  # infeasible: see DES_FEASIBLE_MAX_N
        for tier in ("analytic", "hybrid"):
            r = sweep_point(n, resolve_backend(tier))
            row[f"{tier}_wall_s"] = r["wall_s"]
            row[f"{tier}_tgsum_s"] = r["tgsum_s"]
            if des_row is not None:
                row[f"{tier}_rel_err_tgsum"] = (
                    abs(r["tgsum_s"] - des_row["tgsum_s"]) / des_row["tgsum_s"]
                )
                row[f"{tier}_rel_err_texchxyz"] = (
                    abs(r["texchxyz_s"] - des_row["texchxyz_s"])
                    / des_row["texchxyz_s"]
                )
        rows.append(row)
    return rows


def test_bench_backend_tiers(benchmark):
    """Tentpole numbers: >= 10x vs the seed DES path, N = 4096 reachable."""
    # -- Fig. 9, seed DES path, reconstructed live: packet-exact costs
    #    from a fresh simulation per quote, on the seed kernels --------
    with seed_hot_paths():
        seed_wall, seed_cm = _timed(run_tier_fig09, ColdDESBackend())
    # -- Fig. 9, current code: wire-coupled DES path + the three tiers -
    cur_des_wall, cur_des_cm = _timed(run_des_reliable_fig09)
    tier_wall, tier_digest = {}, {}
    t0 = time.perf_counter()
    cm = benchmark.pedantic(run_tier_fig09, args=("analytic",), rounds=1, iterations=1)
    tier_wall["analytic"] = time.perf_counter() - t0
    tier_digest["analytic"] = _digest(cm)
    for tier in ("des", "hybrid"):
        tier_wall[tier], cm = _timed(run_tier_fig09, tier)
        tier_digest[tier] = _digest(cm)
    # fidelity never touches state: every path lands on one digest
    assert _digest(seed_cm) == _digest(cur_des_cm)
    assert len(set(tier_digest.values())) == 1
    speedup = seed_wall / tier_wall["analytic"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"analytic tier {tier_wall['analytic']:.3f}s vs seed DES "
        f"{seed_wall:.3f}s = {speedup:.1f}x < {SPEEDUP_FLOOR}x"
    )
    # -- cross-validation gate ----------------------------------------
    report = run_crossval(windows=2)
    assert report["passed"], f"crossval gate failed: {report}"
    # -- large-N sweep ------------------------------------------------
    rows = sweep_rows()
    big = rows[-1]
    assert big["n_nodes"] == 4096 and big["analytic_wall_s"] < 5.0
    emit(
        "backend_tiers",
        format_table(
            "Fidelity tiers - Fig. 9 wall-clock and the large-N sweep",
            ["quantity", "value", "context"],
            [
                ["seed DES path (fig09)", f"{seed_wall:.2f} s", "cold quotes + seed kernels"],
                ["wire-coupled DES run", f"{cur_des_wall:.2f} s", "hot paths flattened"],
                ["des tier", f"{tier_wall['des']:.2f} s", "memoized packet-exact quotes"],
                ["analytic tier", f"{tier_wall['analytic']:.2f} s", f"{speedup:.1f}x vs seed"],
                ["hybrid tier", f"{tier_wall['hybrid']:.2f} s", "analytic steady-state"],
                ["crossval max err", f"{report['max_rel_err'] * 100:.2f} %", "<= 5 % band"],
                ["sweep N=4096 (analytic)", f"{big['analytic_wall_s'] * 1e3:.0f} ms", "DES: ~20 s, not run"],
            ],
        ),
    )
    emit_bench(
        "backend",
        wall_clock_s=seed_wall + cur_des_wall + sum(tier_wall.values()),
        virtual_time_s=cm.elapsed,
        model_error={"crossval_max_rel_err": report["max_rel_err"]},
        data={
            "fig09": {
                "windows": WINDOWS,
                "seed_des_wall_s": seed_wall,
                "wire_coupled_des_wall_s": cur_des_wall,
                "tier_wall_s": tier_wall,
                "speedup_analytic_vs_seed_des": speedup,
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
