"""Tests for the exchange primitive: halo consistency across tilings."""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.tiling import Decomposition


def global_field(nx, ny, nz=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (ny, nx) if nz is None else (nz, ny, nx)
    return rng.standard_normal(shape)


def tiles_from_global(decomp, g):
    return HaloExchanger(decomp).scatter_global(g)


def reference_halo(decomp, g, rank, width):
    """Build the expected tile array straight from the global field."""
    t = decomp.tile(rank)
    o = decomp.olx
    shape = (
        g.shape[:-2] + (t.ny + 2 * o, t.nx + 2 * o)
        if g.ndim == 3
        else (t.ny + 2 * o, t.nx + 2 * o)
    )
    out = np.zeros(shape, dtype=g.dtype)
    for jj in range(-width, t.ny + width):
        gy = t.y0 + jj
        if gy < 0 or gy >= decomp.ny:
            continue  # wall: halo stays zero
        for ii in range(-width, t.nx + width):
            gx = (t.x0 + ii) % decomp.nx if decomp.periodic_x else t.x0 + ii
            if gx < 0 or gx >= decomp.nx:
                continue
            out[..., o + jj, o + ii] = g[..., gy, gx]
    # zero out anything beyond the requested exchange width
    return out


@pytest.mark.parametrize("px,py,olx", [(4, 4, 3), (2, 4, 1), (8, 1, 3), (1, 1, 2), (4, 2, 2)])
def test_halos_match_global_field_2d(px, py, olx):
    d = Decomposition(32, 16, px, py, olx=olx)
    g = global_field(32, 16, seed=1)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles)
    for r in range(d.n_ranks):
        expected = reference_halo(d, g, r, olx)
        np.testing.assert_allclose(tiles[r], expected)


def test_halos_match_global_field_3d():
    d = Decomposition(16, 16, 2, 2, olx=2)
    g = global_field(16, 16, nz=5, seed=2)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles)
    for r in range(d.n_ranks):
        np.testing.assert_allclose(tiles[r], reference_halo(d, g, r, 2))


def test_corner_cells_filled_with_diagonal_neighbor_data():
    d = Decomposition(8, 8, 2, 2, olx=1)
    g = np.arange(64, dtype=float).reshape(8, 8)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles)
    # Tile 0 (x0=0,y0=0): its north-east halo corner is global (4, 4),
    # owned by the diagonal tile 3.
    o = 1
    t = d.tile(0)
    assert tiles[0][o + t.ny, o + t.nx] == g[4, 4]


def test_partial_width_exchange():
    d = Decomposition(16, 16, 2, 2, olx=3)
    g = global_field(16, 16, seed=3)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles, width=1)
    for r in range(d.n_ranks):
        expected = reference_halo(d, g, r, 1)
        np.testing.assert_allclose(tiles[r], expected)


def test_width_exceeding_halo_rejected():
    d = Decomposition(16, 16, 2, 2, olx=1)
    tiles = [t.alloc2d() for t in d.tiles]
    with pytest.raises(ValueError):
        exchange_halos(d, tiles, width=2)


def test_negative_width_rejected():
    """A negative width would flip the halo slices into interior ranges
    and silently overwrite interior cells; it must raise instead."""
    d = Decomposition(16, 16, 2, 2, olx=1)
    tiles = [t.alloc2d() for t in d.tiles]
    with pytest.raises(ValueError, match="width must be >= 0"):
        exchange_halos(d, tiles, width=-1)


def test_wrong_tile_count_rejected():
    d = Decomposition(16, 16, 2, 2)
    with pytest.raises(ValueError):
        exchange_halos(d, [d.tile(0).alloc2d()])


def test_zero_width_is_noop():
    d = Decomposition(16, 16, 2, 2, olx=1)
    tiles = [t.alloc2d() for t in d.tiles]
    tiles[0][:] = 7.0
    before = [a.copy() for a in tiles]
    exchange_halos(d, tiles, width=0)
    for a, b in zip(tiles, before):
        np.testing.assert_array_equal(a, b)


def test_single_tile_periodic_wrap():
    d = Decomposition(8, 4, 1, 1, olx=2)
    g = np.arange(32, dtype=float).reshape(4, 8)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles)
    o = 2
    # west halo holds the two easternmost global columns
    np.testing.assert_allclose(tiles[0][o : o + 4, 0:2], g[:, 6:8])
    np.testing.assert_allclose(tiles[0][o : o + 4, o + 8 : o + 10], g[:, 0:2])


def test_gather_scatter_roundtrip():
    d = Decomposition(32, 16, 4, 2, olx=2)
    g = global_field(32, 16, nz=3, seed=4)
    hx = HaloExchanger(d)
    tiles = hx.scatter_global(g)
    np.testing.assert_allclose(hx.gather_global(tiles), g)


def test_exchange_idempotent():
    d = Decomposition(16, 16, 2, 2, olx=1)
    g = global_field(16, 16, seed=5)
    tiles = tiles_from_global(d, g)
    exchange_halos(d, tiles)
    snapshot = [a.copy() for a in tiles]
    exchange_halos(d, tiles)
    for a, b in zip(tiles, snapshot):
        np.testing.assert_array_equal(a, b)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    px=st.sampled_from([1, 2, 4]),
    py=st.sampled_from([1, 2]),
)
@settings(max_examples=25, deadline=None)
def test_property_interiors_never_modified(seed, px, py):
    d = Decomposition(16, 8, px, py, olx=1)
    g = global_field(16, 8, seed=seed)
    tiles = tiles_from_global(d, g)
    interiors = [t_arr[d.tile(r).interior].copy() for r, t_arr in enumerate(tiles)]
    exchange_halos(d, tiles)
    for r, t_arr in enumerate(tiles):
        np.testing.assert_array_equal(t_arr[d.tile(r).interior], interiors[r])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_decomposition_invariance_of_stencil(seed):
    """A 3x3 stencil applied per-tile after exchange equals the stencil
    applied to the global field — the core overcomputation guarantee."""
    nx, ny = 16, 8
    g = global_field(nx, ny, seed=seed)

    def stencil(a):
        # 5-point average with periodic x, zero-padded y (walls)
        p = np.zeros((a.shape[0] + 2, a.shape[1] + 2))
        p[1:-1, 1:-1] = a
        p[1:-1, 0] = a[:, -1]
        p[1:-1, -1] = a[:, 0]
        return p[1:-1, 1:-1] + p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]

    expected = stencil(g)
    d = Decomposition(nx, ny, 4, 2, olx=1)
    hx = HaloExchanger(d)
    tiles = hx.scatter_global(g)
    exchange_halos(d, tiles)
    out_tiles = []
    for r, a in enumerate(tiles):
        s = a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:] + a[1:-1, 1:-1]
        # s has shape (ny, nx) of the tile... extract interior region of sum
        out = np.zeros_like(a)
        out[1:-1, 1:-1] = s
        out_tiles.append(out)
    got = hx.gather_global(out_tiles)
    np.testing.assert_allclose(got, expected)


# -- one field, three spellings ----------------------------------------------
# A stack is filled by slice copies on its tile-grid view, a list of tiles
# through a stack; the per-rank plan both replaced lives on in
# tests/gcm/_reference_step.py.

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "gcm"))
from _reference_step import reference_exchange_halos  # noqa: E402


@pytest.mark.parametrize("wire_dtype", [None, np.float32], ids=["f64", "wire32"])
@pytest.mark.parametrize("nz", [None, 5], ids=["2d", "3d"])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("px,py", [(1, 1), (2, 2), (4, 2), (4, 4), (8, 4)])
def test_stack_list_and_oracle_plan_agree(px, py, width, nz, wire_dtype):
    d = Decomposition(32, 16, px, py, olx=3)
    rng = np.random.default_rng(px * 100 + py * 10 + width)
    shape = (d.n_ranks,) + (() if nz is None else (nz,)) + d.tiles[0].shape2d
    stack = rng.standard_normal(shape)  # halos start as noise, not zeros
    as_list = [tile.copy() for tile in stack]
    as_oracle = [tile.copy() for tile in stack]
    exchange_halos(d, stack, width, wire_dtype=wire_dtype)
    exchange_halos(d, as_list, width, wire_dtype=wire_dtype)
    reference_exchange_halos(d, as_oracle, width, wire_dtype=wire_dtype)
    np.testing.assert_array_equal(stack, np.stack(as_oracle))
    np.testing.assert_array_equal(np.stack(as_list), np.stack(as_oracle))


def _stack(d, layout, rng):
    """A field of ``d``'s tiles with noise in its halos, laid out as a
    2-D or 3-D contiguous stack or as a non-contiguous ``(n_ranks, 2,
    ...)`` view of a ``(2, n_ranks, ...)`` buffer."""
    tile = d.tiles[0].shape2d
    if layout == "moveaxis":
        return np.moveaxis(rng.standard_normal((2, d.n_ranks) + tile), 0, 1)
    return rng.standard_normal((d.n_ranks,) + ((5,) if layout == "3d" else ()) + tile)


@pytest.mark.parametrize("wire_dtype", [None, np.float32], ids=["f64", "wire32"])
@pytest.mark.parametrize("layout", ["2d", "3d", "moveaxis"])
@pytest.mark.parametrize("width", [0, 1, 2, 3])
@pytest.mark.parametrize("px,py", [(1, 1), (1, 4), (4, 1), (2, 2), (4, 4)])
@pytest.mark.parametrize(
    "periodic_x,periodic_y", [(True, False), (False, False), (False, True), (True, True)]
)
def test_one_plan_fills_every_geometry(periodic_x, periodic_y, px, py, width, layout, wire_dtype):
    """The tile-grid slice plan (its wrap copies exist only on periodic
    axes, its shift copies only where the grid has two tiles along the
    axis) fills a stack, and a list through the stack, as the per-rank
    oracle does, on every periodicity, tiling, width and layout."""
    d = Decomposition(32, 16, px, py, olx=3, periodic_x=periodic_x, periodic_y=periodic_y)
    rng = np.random.default_rng([px, py, width, periodic_x, periodic_y])
    stack = _stack(d, layout, rng)
    as_list = [tile.copy() for tile in stack]
    as_oracle = [tile.copy() for tile in stack]
    exchange_halos(d, stack, width, wire_dtype=wire_dtype)
    exchange_halos(d, as_list, width, wire_dtype=wire_dtype)
    reference_exchange_halos(d, as_oracle, width, wire_dtype=wire_dtype)
    np.testing.assert_array_equal(stack, np.stack(as_oracle))
    np.testing.assert_array_equal(np.stack(as_list), np.stack(as_oracle))


def test_a_rejected_width_stays_rejected():
    """A width the plan refuses is refused on every call, not cached."""
    d = Decomposition(16, 16, 2, 2, olx=1)
    stack = np.zeros((d.n_ranks,) + d.tiles[0].shape2d)
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds halo"):
            exchange_halos(d, stack, width=2)
