"""The tables a refactor of the quoting code must not move.

``table_snapshot.json`` pins the output of every ``repro pfpp`` mode,
the Fig. 11 / Fig. 12 report sections and the scaling sweeps: printed
tables as text, quoted values as ``repr(float)``.  Recorded at commit 2a68ba0, before
``comm_terms`` replaced the per-table copies of the mapping.

Re-record (only when a change is *meant* to move a paper number)::

    PYTHONPATH=src python tests/core/test_table_snapshot.py --record
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).with_name("table_snapshot.json")

CLI_RUNS = {
    "pfpp": ["pfpp"],
    "pfpp --best-collectives": ["pfpp", "--best-collectives"],
    "pfpp --topology all": ["pfpp", "--topology", "all"],
    "report fig11 fig12": ["report", "fig11", "fig12"],
}

ROW_FIELDS = ("tgsum", "texchxy", "texchxyz", "pfpp_ps", "pfpp_ds")


def _cli(argv) -> list:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [line.rstrip() for line in out.getvalue().splitlines()]


def _value(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return [_value(x) for x in v]
    return v


def _rows(rows, fields) -> list:
    return [{f: _value(getattr(r, f)) for f in fields} for r in rows]


def collect() -> dict:
    """Everything the snapshot pins, JSON-ready."""
    from repro.backend import large_sweep
    from repro.core.pfpp import (
        best_collectives_table,
        fig12_table,
        topology_scoreboard,
    )
    from repro.core.scaling import cpu_sweep, resolution_sweep
    from repro.network.costmodel import (
        arctic_cost_model,
        fast_ethernet_cost_model,
        gigabit_ethernet_cost_model,
    )

    snap = {f"cli: {name}": _cli(argv) for name, argv in CLI_RUNS.items()}
    for from_models in (True, False):
        snap[f"fig12_table(from_models={from_models})"] = _rows(
            fig12_table(from_models=from_models), ("name",) + ROW_FIELDS
        )
    snap["best_collectives_table"] = _rows(
        best_collectives_table(), ("n_nodes", "gsum_algorithm") + ROW_FIELDS
    )
    board_fields = (
        ("topology", "n_nodes", "grid", "gsum_algorithm")
        + ROW_FIELDS
        + ("max_hops", "bisection_bandwidth", "area_scale", "precision")
    )
    snap["topology_scoreboard(64, 1024)"] = _rows(
        topology_scoreboard(n_values=(64, 1024)), board_fields
    )
    snap["topology_scoreboard(64, wire32)"] = _rows(
        topology_scoreboard(
            n_values=(64,), itemsize=4, gsum_nbytes=4, precision="wire32"
        ),
        board_fields,
    )
    for backend, nz in ((None, 10), ("analytic", 10), ("analytic", 8), ("hybrid", 12)):
        report = large_sweep((16, 64, 256), backend=backend, nz=nz)
        snap[f"large_sweep(backend={backend}, nz={nz})"] = [
            {k: _value(v) for k, v in row.items()} for row in report["rows"]
        ]
    models = {
        "arctic": arctic_cost_model(),
        "gigabit": gigabit_ethernet_cost_model(),
        "fast": fast_ethernet_cost_model(),
    }
    for name, model in models.items():
        for sweep in (cpu_sweep, resolution_sweep):
            snap[f"{sweep.__name__}({name})"] = [
                _value(dataclasses.astuple(p)) for p in sweep(cost_model=model)
            ]
    return snap


RECORDED = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}


@pytest.fixture(scope="module")
def current():
    return collect()


def test_snapshot_covers_what_is_collected(current):
    assert RECORDED and sorted(current) == sorted(RECORDED)


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_table_unchanged(current, key):
    assert current[key] == RECORDED[key]


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    SNAPSHOT.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {SNAPSHOT}")
