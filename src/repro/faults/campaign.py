"""Systematic fault campaigns: sweep the fault space, audit invariants.

One-off chaos runs answer "does this scenario survive?"; a *campaign*
answers "does the whole degraded-mode story hold together?" by sweeping
fault kind x magnitude x timing x scale x backend tier and auditing
every cell against the same invariants:

* **bit-exactness** — a degraded run's result digest equals the
  undisturbed run's.  Performance faults and straggler mitigation touch
  only the timing layer (virtual clocks, tile placement), never field
  data, so any digest drift is a layering violation.
* **bounded slowdown** — a fault of magnitude ``m`` confined to a
  window may cost at most the window share of ``m`` (plus margin); an
  unbounded slowdown means the mitigation or the pricing went wrong.
* **tier consistency** — analytic and hybrid degraded-run times stay
  within :data:`TIER_BAND` of the DES tier's, because all three compose
  the same closed-form :class:`~repro.faults.degrade.WireDegradation`
  penalty on top of clean quotes that cross-validation already bounds.
* **no false-positive evictions** — merely-slow nodes are suspected
  (and relieved of tiles), never declared dead: the phi-accrual
  detector is replayed against a deterministic beacon stream shaped by
  the scenario's fault, and an undisturbed run must produce zero
  suspects and zero tile moves.

Each scenario is a deterministic pure function of its parameters, so it
ships as an ensemble-service job (kind ``"campaign"``) and inherits the
service's crash-safety, retries and adaptive deadlines; ``repro
campaign --smoke`` runs a reduced grid in CI and emits a schema'd
``BENCH_campaign.json`` scorecard.
"""

from __future__ import annotations

import math
import pathlib
import random
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.degrade import DegradationSchedule
from repro.faults.plan import (
    BandwidthEvent,
    CrashEvent,
    FaultPlan,
    JitterEvent,
    SlowdownEvent,
    StallEvent,
)
from repro.recover.membership import HeartbeatConfig

#: Fault kinds a scenario can inject (``crash``/``stall`` exercise the
#: detector audit; the rest are priced performance faults).
SCENARIO_KINDS = ("cpu_slow", "link_bw", "nic_jitter", "stall", "crash")

#: Fraction of the clean run at which the fault window opens.
TIMING_FRACS = {"early": 0.10, "mid": 0.45}

#: Fault window length as a fraction of the clean run.
WINDOW_FRAC = 0.35

#: Allowed relative deviation of analytic/hybrid degraded-run elapsed
#: time from the DES tier's.  The clean quotes already agree to the 5%
#: cross-validation band and the degradation penalty is tier-identical
#: by construction, so 15% leaves margin for mitigation-timing skew.
TIER_BAND = 0.15

#: Seconds one scenario job may run on the service before it is killed.
JOB_DEADLINE_S = 300.0

#: Heartbeat timing replayed through the detector audit: the
#: :class:`~repro.recover.membership.HeartbeatConfig` defaults.
HB_PERIOD = HeartbeatConfig.period
HB_TIMEOUT = HeartbeatConfig.timeout

#: Campaign workload geometry: per-tile interior cells and flops/cell
#: chosen so compute dominates (the tier-band audit then isolates the
#: *degradation* pricing, not residual clean-quote spread).
TILE_NX = 16
TILE_NY = 16
FLOPS_PER_CELL = 200.0
#: Over-decomposition: each node time-slices two tiles on one CPU, so
#: shedding a tile from a straggler genuinely halves its stage time —
#: the headroom the mitigation audit measures.
CPUS_PER_NODE = 1
TILES_PER_NODE = 2


@dataclass(frozen=True)
class Scenario:
    """One campaign cell: a fault shape applied to one workload config.

    ``magnitude`` is kind-specific: CPU slowdown factor for
    ``cpu_slow``, bandwidth division factor for ``link_bw``,
    jitter amplitude in microseconds for ``nic_jitter``; ignored for
    ``stall``/``crash``.  ``n_ranks`` tiles run over-decomposed on
    ``n_ranks / TILES_PER_NODE`` nodes, and node 1 is always the
    victim.
    """

    kind: str
    tier: str
    n_ranks: int
    magnitude: float = 0.0
    timing: str = "mid"
    seed: int = 0
    mitigate: bool = False
    stages: int = 12
    checkpoint_every: int = 4

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; have {SCENARIO_KINDS}"
            )
        if self.timing not in TIMING_FRACS:
            raise ValueError(f"timing must be one of {tuple(TIMING_FRACS)}")
        if self.n_ranks < 2 * TILES_PER_NODE or self.n_ranks % TILES_PER_NODE:
            raise ValueError(
                f"n_ranks must be a multiple of {TILES_PER_NODE} with at "
                "least two nodes (node 1 is the victim)"
            )
        if self.stages < 2 or self.checkpoint_every < 1:
            raise ValueError("need >= 2 stages and checkpoint_every >= 1")

    @property
    def n_nodes(self) -> int:
        return self.n_ranks // TILES_PER_NODE

    @property
    def scenario_id(self) -> str:
        return (
            f"{self.kind}-m{self.magnitude:g}-{self.timing}"
            f"-n{self.n_ranks}-{self.tier}"
        )

    def to_params(self) -> dict:
        """JSON-serialisable form (a service job's ``params``)."""
        return asdict(self)

    @classmethod
    def from_params(cls, params: dict) -> "Scenario":
        return cls(**params)


def build_plan(sc: Scenario, horizon: float) -> FaultPlan:
    """The scenario's fault plan, windowed against the clean-run length.

    Pure function of ``(scenario, horizon)`` and ``horizon`` is itself
    deterministic per scenario, so two builds of the same scenario
    inject identical faults — the property the determinism tests pin.
    """
    start = TIMING_FRACS[sc.timing] * horizon
    duration = max(WINDOW_FRAC * horizon, 1e-9)
    victim = 1
    if sc.kind == "cpu_slow":
        # the victim's clock runs ``magnitude`` times slower through the
        # window, so the wall-time window must stretch by the same
        # factor to cover the intended share of its *stages* — otherwise
        # the slowed clock eats the window in a single stage and the
        # straggler is gone before any checkpoint can react
        return FaultPlan(
            seed=sc.seed,
            slowdowns=(
                SlowdownEvent(
                    victim, start, duration * sc.magnitude, sc.magnitude
                ),
            ),
        )
    if sc.kind == "link_bw":
        return FaultPlan(
            seed=sc.seed,
            degradations=(
                BandwidthEvent(
                    f"niu{victim}^", start, duration, 1.0 / sc.magnitude
                ),
            ),
        )
    if sc.kind == "nic_jitter":
        return FaultPlan(
            seed=sc.seed,
            jitters=(
                JitterEvent(victim, start, duration, sc.magnitude * 1e-6),
            ),
        )
    if sc.kind == "stall":
        # a GC-pause-like blip: four missed beacons, then recovery —
        # long enough to spike phi, short of the k_dead silence gate
        return FaultPlan(
            seed=sc.seed, stalls=(StallEvent(victim, start, 4 * HB_PERIOD),)
        )
    return FaultPlan(seed=sc.seed, crashes=(CrashEvent(victim, start),))


# ---------------------------------------------------------------------------
# The workload: a synthetic BSP program with real data movement
# ---------------------------------------------------------------------------


def _grid_shape(n_ranks: int) -> Tuple[int, int]:
    """A near-square ``px x py`` factorization of the rank count."""
    px = 1
    for p in range(int(math.isqrt(n_ranks)), 0, -1):
        if n_ranks % p == 0:
            px = p
            break
    return px, n_ranks // px


def _digest(fields: Sequence[np.ndarray]) -> str:
    crc = 0
    for f in fields:
        crc = zlib.crc32(np.ascontiguousarray(f).tobytes(), crc)
    return f"campaign:{crc:08x}"


def _run_workload(
    sc: Scenario,
    plan: Optional[FaultPlan],
    beat: Callable[[], None],
) -> dict:
    """One lockstep run of the campaign workload; pure in ``(sc, plan)``.

    Interior cells smooth against their halos, halos refresh through a
    real exchange, and a global sum folds back into every tile — so the
    digest witnesses exchanges *and* collectives, while timing (clean
    or degraded) never enters the arithmetic.
    """
    from repro.parallel import (
        Decomposition,
        HaloExchanger,
        LockstepRuntime,
        StragglerMitigator,
    )

    px, py = _grid_shape(sc.n_ranks)
    decomp = Decomposition(TILE_NX * px, TILE_NY * py, px, py)
    runtime = LockstepRuntime(
        decomp,
        backend=sc.tier,
        cpus_per_node=CPUS_PER_NODE,
        n_nodes=sc.n_nodes,
    )
    schedule = None
    if plan is not None and plan.degrading:
        schedule = DegradationSchedule(plan)
        runtime.set_degradation(schedule)
    mitigator = StragglerMitigator(runtime) if sc.mitigate else None

    rng = np.random.default_rng(1000 + sc.seed)
    global_field = rng.standard_normal((decomp.ny, decomp.nx))
    fields = HaloExchanger(decomp).scatter_global(global_field)

    o = decomp.olx
    flops = [FLOPS_PER_CELL * t.nx * t.ny for t in decomp.tiles]
    est_stage = 0.0
    for stage in range(sc.stages):
        beat()
        t0 = runtime.elapsed
        degraded = (
            schedule is not None
            and schedule.overlaps(t0, t0 + max(est_stage, 1e-12))
        )
        runtime.backend.begin_window(degraded)
        runtime.charge_compute(flops, "ps")
        for f in fields:
            interior = f[o:-o, o:-o]
            interior[:] = 0.2 * (
                interior
                + f[o - 1 : -o - 1, o:-o]
                + f[o + 1 : -o + 1 or None, o:-o]
                + f[o:-o, o - 1 : -o - 1]
                + f[o:-o, o + 1 : -o + 1 or None]
            )
        runtime.exchange(fields)
        total = runtime.global_sum(
            [float(f[o:-o, o:-o].sum()) for f in fields]
        )
        bump = 1e-6 * math.sin(total)
        for f in fields:
            f[o:-o, o:-o] += bump
        est_stage = runtime.elapsed / (stage + 1)
        if mitigator is not None:
            mitigator.observe()
            if stage % sc.checkpoint_every == sc.checkpoint_every - 1:
                mitigator.rebalance()

    suspects = sorted(mitigator.suspects()) if mitigator else []
    return {
        "digest": _digest(fields),
        "elapsed": runtime.elapsed,
        "moves": list(mitigator.moves) if mitigator else [],
        "suspects": suspects,
    }


# ---------------------------------------------------------------------------
# Detector audit: replay the phi-accrual detector against the scenario
# ---------------------------------------------------------------------------


def _degraded_interval(sc: Scenario, rng: random.Random) -> float:
    """Beacon inter-arrival time while the scenario's fault is active.

    Only the fault-dependent *component* of the beacon path stretches:
    a slow CPU pays its per-beacon send cost ``magnitude`` times over,
    a starved link pays extra serialization, a flaky NIC adds its
    seeded uniform delay.  The 50 us period timer itself never moves.
    """
    if sc.kind == "cpu_slow":
        return HB_PERIOD + 2e-6 * sc.magnitude
    if sc.kind == "link_bw":
        ser = 8.0 / 150e6  # one beacon at nominal Arctic bandwidth
        return HB_PERIOD + ser * max(sc.magnitude - 1.0, 0.0)
    if sc.kind == "nic_jitter":
        return HB_PERIOD + rng.random() * sc.magnitude * 1e-6
    return HB_PERIOD


def audit_detector(sc: Scenario) -> dict:
    """Drive a :class:`~repro.recover.membership.PhiAccrualDetector`
    with the deterministic beacon stream the scenario would produce.

    The invariant under test: degraded-but-alive streams (slow CPU,
    starved link, flaky NIC, a four-beacon stall) must never reach
    ``PEER_DEAD`` — suspicion is fine, declaration is an eviction — and
    a genuine crash must be declared within the scan horizon.
    """
    from repro.recover.membership import (
        PEER_DEAD,
        PEER_SUSPECT,
        PhiAccrualDetector,
    )

    det = PhiAccrualDetector()
    rng = random.Random((sc.seed * 2654435761 + 17) & 0xFFFFFFFF)
    peer, t = 1, 0.0
    for _ in range(40):  # healthy warmup: learn the clean interval
        t += HB_PERIOD
        det.heard(peer, t)
    fault_start = t

    if sc.kind == "crash":
        horizon = t + 400 * HB_PERIOD
        scan = t
        while scan < horizon:
            scan += HB_PERIOD / 4
            if det.state(peer, scan, HB_TIMEOUT) == PEER_DEAD:
                return {
                    "declared": True,
                    "declare_latency_s": scan - fault_start,
                    "false_positive": False,
                    "suspected": True,
                }
        return {
            "declared": False,
            "declare_latency_s": None,
            "false_positive": False,
            "suspected": False,
        }

    ever_dead = ever_suspect = False
    for i in range(120):
        if sc.kind == "stall" and i == 0:
            interval = 4 * HB_PERIOD  # the blip: four silent periods
        else:
            interval = _degraded_interval(sc, rng)
        steps = max(1, int(interval / (HB_PERIOD / 4)))
        for k in range(1, steps + 1):
            state = det.state(peer, t + interval * k / steps, HB_TIMEOUT)
            if state == PEER_DEAD:
                ever_dead = True
            elif state == PEER_SUSPECT:
                ever_suspect = True
        t += interval
        det.heard(peer, t)
    return {
        "declared": False,
        "declare_latency_s": None,
        "false_positive": ever_dead,
        "suspected": ever_suspect,
    }


# ---------------------------------------------------------------------------
# One scenario end-to-end (this is what a "campaign" service job runs)
# ---------------------------------------------------------------------------


def _slowdown_bound(sc: Scenario) -> float:
    """Admissible ``elapsed_fault / elapsed_clean`` for the scenario.

    A magnitude-``m`` CPU fault (whose wall window scales with ``m``,
    see :func:`build_plan`) can at worst slow the whole tail of the run
    by ``m``; mitigation sheds the victim's extra tile, roughly halving
    that, so the bound sits between the mitigated expectation and the
    unmitigated worst case.  Wire-level faults barely dent a
    compute-dominated workload.
    """
    if sc.kind == "cpu_slow":
        return 1.20 + 0.55 * (sc.magnitude - 1.0)
    if sc.kind in ("link_bw", "nic_jitter"):
        return 1.50
    return 1.05  # stall/crash carry no priced performance fault


def run_scenario(
    params: dict, beat: Optional[Callable[[], None]] = None
) -> dict:
    """Execute one campaign scenario; deterministic in ``params``.

    Runs the workload undisturbed, rebuilds the fault plan against the
    clean elapsed time, runs it degraded, replays the detector, and
    evaluates every per-scenario invariant.  The returned ``digest`` is
    the degraded run's — the quantity the service's bit-exactness
    machinery (retries, chaos) guards end to end.
    """
    sc = Scenario.from_params(params)
    tick = beat or (lambda: None)
    tick()
    clean = _run_workload(sc, None, tick)
    plan = build_plan(sc, clean["elapsed"])
    fault = _run_workload(sc, plan, tick)
    tick()
    detector = audit_detector(sc)

    ratio = (
        fault["elapsed"] / clean["elapsed"] if clean["elapsed"] > 0 else 1.0
    )
    bound = _slowdown_bound(sc)
    audits = {
        "bit_exact": fault["digest"] == clean["digest"],
        "bounded_slowdown": ratio <= bound,
        "no_false_evictions": (
            not clean["moves"]
            and not clean["suspects"]
            and not detector["false_positive"]
        ),
        "detector": (
            detector["declared"]
            if sc.kind == "crash"
            else not detector["false_positive"]
        ),
    }
    if sc.kind == "cpu_slow" and sc.mitigate and sc.magnitude >= 4.0:
        audits["mitigation_engaged"] = bool(fault["moves"])
    return {
        "digest": fault["digest"],
        "scenario_id": sc.scenario_id,
        "scenario": sc.to_params(),
        "digest_clean": clean["digest"],
        "elapsed_clean": clean["elapsed"],
        "elapsed_fault": fault["elapsed"],
        "slowdown_ratio": ratio,
        "slowdown_bound": bound,
        "moves": fault["moves"],
        "suspects": fault["suspects"],
        "detector": detector,
        "audits": audits,
        "ok": all(audits.values()),
        "steps": sc.stages,
    }


# ---------------------------------------------------------------------------
# The grid, the runner, the scorecard
# ---------------------------------------------------------------------------


def build_grid(
    smoke: bool = False, tiers: Optional[Sequence[str]] = None
) -> List[Scenario]:
    """The campaign's scenario grid.

    Smoke (the CI gate): one cross-tier cpu-slow point plus one
    scenario per remaining fault kind at ``n_ranks=8``.  Full: fault
    kind x magnitude x timing x scale x tier, with the DES tier capped
    at 16 ranks (its packet-level measurement cost scales with N; the
    cross-tier band is established at small N and the analytic tuner
    carries it upward).
    """
    tiers = tuple(tiers or ("des", "analytic", "hybrid"))
    if smoke:
        grid = [
            Scenario("cpu_slow", tier, 8, 4.0, "early", mitigate=True)
            for tier in tiers
        ]
        grid += [
            Scenario("link_bw", "analytic", 8, 4.0, "mid"),
            Scenario("nic_jitter", "hybrid", 8, 4.0, "mid"),
            Scenario("stall", "analytic", 8, 4.0, "mid"),
            Scenario("crash", "analytic", 8, 0.0, "mid"),
        ]
        return grid
    grid = []
    sweeps = (
        ("cpu_slow", (2.0, 4.0, 8.0)),
        ("link_bw", (4.0, 16.0)),
        ("nic_jitter", (2.0, 8.0)),
    )
    for kind, magnitudes in sweeps:
        for mag in magnitudes:
            for timing in TIMING_FRACS:
                for n in (16, 64):
                    for tier in tiers:
                        if tier == "des" and n > 16:
                            continue
                        grid.append(
                            Scenario(
                                kind, tier, n, mag, timing,
                                mitigate=(kind == "cpu_slow"),
                            )
                        )
    for timing in TIMING_FRACS:
        grid.append(Scenario("stall", "analytic", 16, 4.0, timing))
        grid.append(Scenario("crash", "analytic", 16, 0.0, timing))
    return grid


def audit_campaign(
    scenarios: Sequence[Scenario], results: Dict[str, Optional[dict]]
) -> dict:
    """Fold per-scenario results into the campaign scorecard.

    Adds the one audit no single scenario can run: the cross-tier band
    (analytic/hybrid degraded elapsed within :data:`TIER_BAND` of DES
    for every grid point the DES tier covered).
    """
    rows: List[dict] = []
    failures: List[dict] = []
    for sc in scenarios:
        res = results.get(sc.scenario_id)
        if res is None:
            failures.append(
                {
                    "scenario": sc.scenario_id,
                    "audit": "completed",
                    "detail": "no result (job quarantined or shed)",
                }
            )
            rows.append({"scenario_id": sc.scenario_id, "ok": False})
            continue
        for name, ok in res["audits"].items():
            if not ok:
                failures.append(
                    {
                        "scenario": sc.scenario_id,
                        "audit": name,
                        "detail": {
                            "slowdown_ratio": res["slowdown_ratio"],
                            "slowdown_bound": res["slowdown_bound"],
                            "detector": res["detector"],
                        },
                    }
                )
        rows.append(
            {
                "scenario_id": sc.scenario_id,
                "kind": sc.kind,
                "tier": sc.tier,
                "n_ranks": sc.n_ranks,
                "magnitude": sc.magnitude,
                "timing": sc.timing,
                "elapsed_clean": res["elapsed_clean"],
                "elapsed_fault": res["elapsed_fault"],
                "slowdown_ratio": res["slowdown_ratio"],
                "slowdown_bound": res["slowdown_bound"],
                "moves": len(res["moves"]),
                "detector": res["detector"],
                "audits": res["audits"],
                "ok": res["ok"],
            }
        )

    groups: Dict[tuple, Dict[str, dict]] = defaultdict(dict)
    for sc in scenarios:
        res = results.get(sc.scenario_id)
        if res is not None:
            key = (sc.kind, sc.magnitude, sc.timing, sc.n_ranks, sc.seed)
            groups[key][sc.tier] = res
    max_tier_error = 0.0
    for key, by_tier in groups.items():
        ref = by_tier.get("des")
        if ref is None or ref["elapsed_fault"] <= 0:
            continue
        for tier, res in by_tier.items():
            if tier == "des":
                continue
            err = (
                abs(res["elapsed_fault"] - ref["elapsed_fault"])
                / ref["elapsed_fault"]
            )
            max_tier_error = max(max_tier_error, err)
            if err > TIER_BAND:
                failures.append(
                    {
                        "scenario": res["scenario_id"],
                        "audit": "tier_band",
                        "detail": {
                            "tier": tier,
                            "error": err,
                            "band": TIER_BAND,
                            "des_elapsed": ref["elapsed_fault"],
                        },
                    }
                )

    n_pass = sum(1 for r in rows if r.get("ok"))
    return {
        "n_scenarios": len(scenarios),
        "n_pass": n_pass,
        "n_fail": len(scenarios) - n_pass,
        "tier_band": TIER_BAND,
        "max_tier_error": max_tier_error,
        "failures": failures,
        "scenarios": rows,
        "ok": not failures,
    }


def run_campaign(
    out_dir: Optional[pathlib.Path] = None,
    root: Optional[pathlib.Path] = None,
    smoke: bool = False,
    tiers: Optional[Sequence[str]] = None,
    max_workers: int = 2,
) -> dict:
    """Run the campaign and return (and optionally bench) the scorecard.

    With a ``root`` every scenario ships as a ``"campaign"`` job through
    the ensemble service (spool, journal, supervisor, adaptive
    deadlines) and the service drains the batch; without one the same
    jobs run in-process, which is what the unit tests exercise.
    ``out_dir`` gets the schema'd ``BENCH_campaign.json``.
    """
    from repro.service import run_batch

    scenarios = build_grid(smoke=smoke, tiers=tiers)
    job_results = run_batch(
        "campaign", [sc.to_params() for sc in scenarios], root, max_workers, JOB_DEADLINE_S
    )
    results = {sc.scenario_id: r for sc, r in zip(scenarios, job_results)}

    scorecard = audit_campaign(scenarios, results)
    scorecard["smoke"] = smoke
    scorecard["via_service"] = root is not None
    if out_dir is not None:
        from repro.obs.bench import write_bench

        virtual = sum(
            r["elapsed_fault"]
            for r in results.values()
            if r is not None
        )
        write_bench(
            pathlib.Path(out_dir),
            "campaign",
            virtual_time_s=virtual,
            model_error={"max_tier_error": scorecard["max_tier_error"]},
            data=scorecard,
        )
    return scorecard
