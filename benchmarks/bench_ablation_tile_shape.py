"""Ablation — tile shape: long strips vs compact blocks (Fig. 5).

"Tile sizes and distributions can be defined to produce long strips
consistent with vector memories.  Alternatively small, compact blocks
can be created which are better suited to deep memory hierarchies."

The communication consequence, priced here: strips trade two neighbours
for longer edges; blocks minimize halo volume (perimeter/area) at the
cost of more transfers.  (The cache consequence is host time and so
``perf/``'s to measure: ``gcm.us_per_cell_step``.)
"""

from repro.core.pfpp import comm_terms
from repro.network.costmodel import arctic_cost_model
from repro.parallel.tiling import Decomposition

from _tables import emit, format_table, us


def comm_cost(px, py, nz=10):
    d = Decomposition(128, 64, px, py, olx=3)
    edges = d.edge_bytes(nz=nz, rank=d.critical_rank)
    texchxyz = comm_terms(arctic_cost_model(), d, nz, mixmode=True).texchxyz
    return texchxyz, sum(edges), sum(1 for e in edges if e)


def test_bench_tile_shape_table():
    shapes = {"strips 16x1 (8x64 tiles)": (16, 1), "blocks 4x4 (32x16 tiles)": (4, 4)}

    comm = {name: comm_cost(*pq) for name, pq in shapes.items()}
    rows = []
    for name, (t_x, vol, nbrs) in comm.items():
        rows.append([name, us(t_x), f"{vol}", str(nbrs)])
    emit(
        "ablation_tile_shape",
        format_table(
            "Fig. 5 ablation - decomposition shape, 2.8125 deg atmosphere",
            ["decomposition", "texchxyz (us)", "halo volume (B)", "remote edges"],
            rows,
        ),
    )
    strip = comm["strips 16x1 (8x64 tiles)"]
    block = comm["blocks 4x4 (32x16 tiles)"]
    # strips send through only 2 edges but carry more volume; at 8-wide
    # tiles the volume penalty wins and blocks communicate cheaper
    assert strip[2] == 2 and block[2] == 4
    assert strip[1] > block[1]
    assert block[0] < strip[0]
