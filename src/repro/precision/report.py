"""Presentation helpers for the precision subsystem.

Builds the rows behind ``repro report`` 's precision section and the
CLI output of ``repro tune-precision``.  Everything here is static
accounting (no model runs): preset wire-byte reductions plus whatever
tuned assignment a previous search persisted.
"""

from __future__ import annotations

from typing import List, Optional

from repro.precision.config import PRECISION_FIELDS, SITES, PrecisionConfig
from repro.precision.search import load_tuned_config, wire_byte_reduction


def _site_summary(config: PrecisionConfig) -> dict:
    """float32 cell counts per site, e.g. ``{"state": 6, ...}``."""
    return {
        site: sum(
            1 for f in PRECISION_FIELDS if config.precision(f, site) == "float32"
        )
        for site in SITES
    }


def precision_rows(out_dir=None) -> List[List[str]]:
    """One row per preset (plus the persisted tuned config, if any):
    float32 cells per site and the exchange+gsum wire-byte reduction."""
    configs = [PrecisionConfig.preset(name) for name in ("all64", "wire32", "all32")]
    tuned: Optional[PrecisionConfig] = (
        load_tuned_config(out_dir) if out_dir is not None else None
    )
    if tuned is not None:
        configs.append(tuned)
    rows = []
    nf = len(PRECISION_FIELDS)
    for cfg in configs:
        sites = _site_summary(cfg)
        wire = wire_byte_reduction(cfg)
        rows.append(
            [
                cfg.name,
                *(f"{sites[site]}/{nf}" for site in SITES),
                f"{100.0 * wire['reduction']:.0f}%",
            ]
        )
    return rows


def format_search_result(result: dict) -> str:
    """Human-readable summary of a :func:`~repro.precision.search.tune_precision`
    result: the trajectory, the tuned assignment and the gate margins."""
    lines = []
    lines.append(
        f"search: {result['n_evaluations']} candidate evaluations "
        f"({'service' if result['via_service'] else 'inline'}, "
        f"{'smoke' if result['smoke'] else 'reference'} run)"
    )
    for step in result["trajectory"]:
        reverted = ",".join(step["reverted"]) or "(none: pure all32)"
        verdict = "pass" if step["passed"] else "FAIL " + ",".join(step["failures"])
        lines.append(f"  revert[{reverted}] -> {verdict}")
    lines.append(result["describe"])
    lines.append(
        "reverted to float64: "
        + (", ".join(result["reverted_groups"]) or "(nothing)")
    )
    wire = result["wire"]
    lines.append(
        f"wire bytes: {wire['wire_bytes_config']:.0f} of "
        f"{wire['wire_bytes_all64']:.0f} "
        f"({100.0 * wire['reduction']:.0f}% reduction, "
        f"{100.0 * wire['fraction_f32']:.0f}% of elements at float32)"
    )
    report = result["final_report"]
    for key, err in report["errors"].items():
        tol = report["tolerances"][key]
        lines.append(f"gate {key}: rel-err {err:.3e} <= {tol:.1e}")
    lines.append("PASS" if result["passed"] else "FAIL")
    return "\n".join(lines)
