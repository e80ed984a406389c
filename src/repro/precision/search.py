"""Precimonious-style delta-debugging search over precision cells.

The driver starts from the ``all32`` preset and finds the **minimal set
of field/site groups that must revert to float64** for every accuracy
gate to pass (Rubio-González et al., SC'13: hierarchical bisection of
the failing variable set).  The searchable units are one group per
prognostic field at the ``state`` and ``exchange_wire`` sites, plus one
whole-site group each for ``gsum_wire`` and ``cg_internals`` (those are
physically a single scalar stream and a single solver).

The bisection is the classic ddmin recursion.  With ``passes(R)`` =
"the config with group set R at float64 clears every gate", and the
invariant that the incoming group set plus the committed reverts
passes:

* if the committed reverts alone pass, nothing in this group set is
  needed;
* otherwise split in half; if either half (plus committed) passes,
  recurse into it alone;
* on interference, minimize each half against the other's full revert.

Both half-candidates of a split are evaluated as one batch
(:func:`repro.service.run_batch`), so when the evaluations run as
ensemble-service jobs (``service_root=...``) they execute in parallel
on the item-3 worker fleet.  Every evaluation is
memoized and appended to the search trajectory.

Wire-byte accounting is static and element-weighted over the reference
run's communication pattern (PS halo exchanges per step, solver
exchanges and global sums per CG iteration), so "≥50% of exchange+gsum
wire bytes at float32" is an exact statement about the bytes the cost
models price, not a cell count.
"""

from __future__ import annotations

import json
import math
import pathlib
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.precision.config import PRECISION_FIELDS, PrecisionConfig
from repro.precision.gates import (
    DEFAULT_TOLERANCES,
    REFERENCE_RUN,
    SMOKE_RUN,
    GateReport,
    gate_candidate,
    reference_diagnostics,
)

#: Filename of the persisted tuned assignment (``repro pfpp
#: --precision tuned`` loads it from the bench output directory).
TUNED_CONFIG_NAME = "PRECISION_tuned.json"

Cell = Tuple[str, str]
Group = Tuple[str, List[Cell]]


def leaf_groups() -> List[Group]:
    """The searchable (name, cells) units, coarse-to-fine ordered:
    per-field state groups first (the usual culprits), then the two
    whole-site groups, then per-field wire groups."""
    groups: List[Group] = []
    for f in PRECISION_FIELDS:
        groups.append((f"state:{f}", [(f, "state")]))
    groups.append(
        ("cg_internals", [(f, "cg_internals") for f in PRECISION_FIELDS])
    )
    for f in PRECISION_FIELDS:
        groups.append((f"exchange_wire:{f}", [(f, "exchange_wire")]))
    groups.append(("gsum_wire", [(f, "gsum_wire") for f in PRECISION_FIELDS]))
    return groups


def config_for_reverts(groups: Sequence[Group], name: Optional[str] = None) -> PrecisionConfig:
    """``all32`` with every cell of ``groups`` back at float64."""
    cells = [c for _, cs in groups for c in cs]
    if name is None:
        name = "all32" if not groups else "all32-revert[" + ",".join(
            g for g, _ in groups
        ) + "]"
    return PrecisionConfig.preset("all32").with_cells(cells, "float64", name=name)


# ---------------------------------------------------------------------------
# wire-byte accounting


def wire_element_counts(smoke: bool = False, mean_ni: float = 30.0) -> Dict[Cell, float]:
    """Wire elements moved per reference-run step, per (field, site).

    Counts the reference coupled run's communication pattern exactly:
    per step each isomorph exchanges five 3-D PS fields at full halo
    width, and the surface-pressure CG moves one two-field width-1
    exchange (booked to the pressure field) plus two scalar global sums
    per iteration (``mean_ni`` iterations, butterfly messages between
    SMP nodes).
    """
    from repro.gcm.timestepper import ModelConfig
    from repro.parallel.tiling import Decomposition

    run = SMOKE_RUN if smoke else REFERENCE_RUN
    cfg = ModelConfig(px=run["px"], py=run["py"])
    ds_px, ds_py = cfg.resolve_ds_shape()
    counts: Dict[Cell, float] = {}

    def edge_elems(decomp, nz, width):
        return float(
            sum(
                sum(decomp.edge_bytes(nz=nz, width=width, itemsize=1, rank=r))
                for r in range(decomp.n_ranks)
            )
        )

    for nz in (run["nz_atm"], run["nz_ocn"]):
        ps = Decomposition(run["nx"], run["ny"], run["px"], run["py"], olx=cfg.olx)
        ds = Decomposition(run["nx"], run["ny"], ds_px, ds_py, olx=1)
        per_field = edge_elems(ps, nz, cfg.olx)
        for f in ("u", "v", "theta", "tracer", "phy"):
            counts[(f, "exchange_wire")] = counts.get((f, "exchange_wire"), 0.0) + per_field
        # solver: one 2-field width-1 2-D exchange per iteration
        counts[("ps", "exchange_wire")] = counts.get(("ps", "exchange_wire"), 0.0) + (
            mean_ni * 2 * edge_elems(ds, 1, 1)
        )
        # two scalar gsums per iteration: butterfly over the SMP nodes,
        # one element per message
        n_nodes = max(ps.n_ranks // cfg.cpus_per_node, 1)
        rounds = math.ceil(math.log2(n_nodes)) if n_nodes > 1 else 0
        gsum_elems = mean_ni * 2 * n_nodes * rounds
        for f in PRECISION_FIELDS:
            counts[(f, "gsum_wire")] = counts.get((f, "gsum_wire"), 0.0) + (
                gsum_elems / len(PRECISION_FIELDS)
            )
    return counts


def wire_byte_reduction(
    config: PrecisionConfig, smoke: bool = False, mean_ni: float = 30.0
) -> dict:
    """Exact exchange+gsum wire-byte accounting of ``config`` against
    all-float64, element-weighted over the reference run pattern."""
    counts = wire_element_counts(smoke=smoke, mean_ni=mean_ni)
    bytes64 = sum(n * 8 for n in counts.values())
    bytes_cfg = 0.0
    f32_elems = 0.0
    total_elems = sum(counts.values())
    for (f, site), n in counts.items():
        size = config.dtype(f, site).itemsize
        bytes_cfg += n * size
        if size == 4:
            f32_elems += n
    return {
        "wire_bytes_all64": bytes64,
        "wire_bytes_config": bytes_cfg,
        "reduction": 1.0 - (bytes_cfg / bytes64 if bytes64 else 1.0),
        "fraction_f32": f32_elems / total_elems if total_elems else 0.0,
    }


# ---------------------------------------------------------------------------
# candidate evaluation (inline or via the ensemble service)


def result_digest(report: GateReport) -> int:
    """CRC-32 of the canonical gate outcome — the determinism contract
    between inline and service evaluation of the same candidate."""
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    return zlib.crc32(payload) & 0xFFFFFFFF


def run_candidate(params: dict, beat=None) -> dict:
    """Worker entry point for ``kind="precision"`` ensemble jobs.

    ``params``: ``config`` (a :meth:`PrecisionConfig.to_dict`),
    ``baseline`` (a :func:`reference_diagnostics` result), optional
    ``smoke`` and ``tolerances``.  Returns the gate report plus its
    digest.
    """
    config = PrecisionConfig.from_dict(params["config"])
    if beat is not None:
        beat()
    report = gate_candidate(
        config,
        params["baseline"],
        smoke=bool(params.get("smoke", False)),
        tolerances=params.get("tolerances"),
    )
    return {
        "passed": report.passed,
        "report": report.to_dict(),
        "digest": result_digest(report),
    }


# ---------------------------------------------------------------------------
# the ddmin search


class _Search:
    """Memoizing evaluator + trajectory recorder for the bisection."""

    def __init__(self, shared: dict, root, max_workers: int) -> None:
        #: what every candidate's job params carry besides its config
        self.shared = shared
        self.root = root
        self.max_workers = max_workers
        self.cache: Dict[frozenset, dict] = {}
        self.trajectory: List[dict] = []

    def _key(self, groups: Sequence[Group]) -> frozenset:
        return frozenset(name for name, _ in groups)

    def evaluate_batch(self, candidates: Sequence[Sequence[Group]]) -> List[bool]:
        """Gate every candidate revert set (memoized, one batch)."""
        fresh = {self._key(groups): groups for groups in candidates}
        fresh = {k: g for k, g in fresh.items() if k not in self.cache}
        if fresh:
            from repro.service import run_batch

            batch = [
                dict(self.shared, config=config_for_reverts(g).to_dict())
                for g in fresh.values()
            ]
            results = run_batch(
                "precision", batch, self.root, self.max_workers, deadline_s=600.0
            )
            if None in results:
                raise RuntimeError("a precision job produced no result")
            for (key, groups), result in zip(fresh.items(), results):
                self.cache[key] = result
                self.trajectory.append(
                    {
                        "reverted": sorted(name for name, _ in groups),
                        "passed": result["passed"],
                        "errors": result["report"]["errors"],
                        "failures": result["report"]["failures"],
                        "digest": result["digest"],
                    }
                )
        return [self.cache[self._key(groups)]["passed"] for groups in candidates]

    def passes(self, groups: Sequence[Group]) -> bool:
        """Gate one candidate revert set."""
        return self.evaluate_batch([groups])[0]

    def minimize(self, groups: List[Group], committed: List[Group]) -> List[Group]:
        """ddmin: the minimal subset of ``groups`` that must revert,
        given ``committed`` reverts.  Precondition: committed+groups
        passes."""
        if self.passes(committed):
            return []
        if len(groups) == 1:
            return list(groups)
        half = len(groups) // 2
        a, b = groups[:half], groups[half:]
        pass_a, pass_b = self.evaluate_batch(
            [committed + a, committed + b]
        )
        if pass_a:
            return self.minimize(a, committed)
        if pass_b:
            return self.minimize(b, committed)
        # interference: each half is needed in part
        need_a = self.minimize(a, committed + b)
        need_b = self.minimize(b, committed + need_a)
        return need_a + need_b


def tune_precision(
    smoke: bool = False,
    service_root=None,
    max_workers: int = 4,
    out_dir=None,
) -> dict:
    """Run the accuracy-gated search; returns the full result record.

    Starts at ``all32``; if it fails any gate, bisects the leaf groups
    to the minimal float64 revert set.  With ``service_root`` the
    candidate evaluations run as parallel ensemble-service jobs.
    ``out_dir`` gets ``PRECISION_tuned.json`` (the tuned assignment +
    its gate report), which ``repro pfpp --precision tuned`` consumes.
    """
    tol = dict(DEFAULT_TOLERANCES)
    baseline = reference_diagnostics(None, smoke=smoke)
    shared = {"baseline": baseline, "smoke": smoke, "tolerances": tol}
    search = _Search(shared, service_root, max_workers)
    groups = leaf_groups()

    # Sanity anchor: the full revert is all64 and must gate clean (it
    # is bit-identical to the baseline).  A failure here means the
    # reference run itself is broken, not any precision choice.
    if not search.passes(groups):
        raise RuntimeError(
            "all64 failed its own gates; the reference run is not "
            "reproducing the baseline"
        )
    reverted = search.minimize(groups, [])
    tuned = config_for_reverts(reverted, name="tuned")
    final = search.cache[search._key(reverted)]
    wire = wire_byte_reduction(tuned, smoke=smoke, mean_ni=baseline["mean_ni"])

    result = {
        "tuned": tuned.to_dict(),
        "passed": bool(final["passed"]),
        "reverted_groups": sorted(name for name, _ in reverted),
        "n_evaluations": len(search.trajectory),
        "trajectory": search.trajectory,
        "final_report": final["report"],
        "tolerances": tol,
        "wire": wire,
        "smoke": smoke,
        "via_service": service_root is not None,
        "describe": tuned.describe(),
    }
    if out_dir is not None:
        out_path = pathlib.Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": tuned.to_dict(),
            "gates": final["report"],
            "wire": wire,
            "smoke": smoke,
        }
        (out_path / TUNED_CONFIG_NAME).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return result


def load_tuned_config(out_dir) -> Optional[PrecisionConfig]:
    """The persisted tuned assignment from ``out_dir``, or None when no
    search result has been written there yet."""
    path = pathlib.Path(out_dir) / TUNED_CONFIG_NAME
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return PrecisionConfig.from_dict(payload["config"])
