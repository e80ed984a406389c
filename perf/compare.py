"""``perf/run.py --compare PARENT.json CHANGE.json``: the rule a later
change is judged by (choosing-metrics guide, sections 6 and 8).

Both files are suite results (``perf/run.py --out``) of the *same*
benchmark on two commits, with the same number of rounds — ten or more
for a claim.  Round *i* of one is paired with round *i* of the other;
run the two suites alternately (or with ``--rounds 1`` in a loop that
alternates which commit goes first) so a pair shares the host's mood.

Per (end-to-end metric, workload) row:

* median and quartiles of each side;
* wins of the change out of the pairs, ties counting for neither;
* ``gain`` only with ten or more pairs, when the change wins at least
  nine tenths of them *and* the medians differ by more than the
  parent's own interquartile distance;
* ``regression`` when the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved`` — not ``unchanged`` — when the parent's spread is
  wider than the bound, unless every run of the change reads better
  than every run of the parent.

Count metrics (simulated statistics) are diffed exactly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from perf.harness import quartiles
from perf.metrics import END_TO_END

WIN_SHARE = 0.9
#: fewer pairs than this can show a regression but never a gain.
MIN_PAIRS = 10


def _better(metric_better: str, a: float, b: float) -> bool:
    """Is ``b`` strictly better than ``a``?"""
    return b > a if metric_better == "higher" else b < a


def judge(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """Apply the rule to one (metric, workload) row."""
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if _better(better, a, b))
    losses = sum(1 for a, b in pairs if _better(better, b, a))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = c_med - p_med
    worse_by = (-gap if better == "higher" else gap) / p_med if p_med else 0.0
    parent_spread = iqr / p_med if p_med else 0.0
    all_better = all(_better(better, a, b) for a in parent for b in change)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(gap) > iqr and worse_by < 0):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif parent_spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "pairs": len(pairs), "wins": wins, "losses": losses,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "gap_over_parent_iqr": abs(gap) / iqr if iqr else float("inf") if gap else 0.0,
        "worse_by": worse_by, "parent_spread": parent_spread, "verdict": verdict,
    }


def _flatten(prefix: str, value, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def diff_counts(parent: dict, change: dict) -> List[Tuple[str, object, object]]:
    """Exact differences between two ``counts`` dictionaries."""
    flat_p: Dict[str, object] = {}
    flat_c: Dict[str, object] = {}
    _flatten("", parent, flat_p)
    _flatten("", change, flat_c)
    return [
        (key, flat_p.get(key), flat_c.get(key))
        for key in sorted(set(flat_p) | set(flat_c))
        if flat_p.get(key) != flat_c.get(key)
    ]


def compare_files(parent_path: str, change_path: str) -> int:
    """Print the comparison; returns 1 if any row is a regression."""
    with open(parent_path) as fh:
        parent = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    regressions = 0
    print(f"parent: {parent_path}\nchange: {change_path}")
    header = (f"{'workload':16s} {'metric':12s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'wins':>7s} {'gap/IQR':>8s} "
              f"{'worse by':>9s}  verdict")
    print(header)
    for name, p_wl in parent["workloads"].items():
        c_wl = change["workloads"].get(name)
        if c_wl is None:
            print(f"{name:16s} missing from the change's results")
            regressions += 1
            continue
        for metric in END_TO_END:
            p_vals = [run["end_to_end"][metric.name] for run in p_wl["runs"]]
            c_vals = [run["end_to_end"][metric.name] for run in c_wl["runs"]]
            row = judge(p_vals, c_vals, metric.better, metric.bound)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(
                f"{name:16s} {metric.name:12s} {fmt(row['parent']):>32s} "
                f"{fmt(row['change']):>32s} {row['wins']:3d}/{row['pairs']:<3d} "
                f"{row['gap_over_parent_iqr']:8.2f} {row['worse_by']:+9.1%}  "
                f"{row['verdict']}"
            )
            regressions += row["verdict"] == "regression"
        if p_wl["failed"] != c_wl["failed"] or p_wl["correct"] != c_wl["correct"]:
            print(f"{name:16s} failed ops {p_wl['failed']} -> {c_wl['failed']}, "
                  f"correct {p_wl['correct']} -> {c_wl['correct']}")
            regressions += c_wl["failed"] > p_wl["failed"] or not c_wl["correct"]
        for key, a, b in diff_counts(p_wl["counts"], c_wl["counts"]):
            print(f"{name:16s} count {key}: {a!r} -> {b!r}")
    if len({len(w["runs"]) for w in parent["workloads"].values()} |
           {len(w["runs"]) for w in change["workloads"].values()}) != 1:
        print("warning: the two files do not hold the same number of rounds; "
              "only the common prefix was paired")
    if any(len(w["runs"]) < MIN_PAIRS for w in parent["workloads"].values()):
        print(f"note: fewer than {MIN_PAIRS} pairs — enough to see a regression, "
              f"never enough to claim a gain")
    return 1 if regressions else 0
