"""ModelState's stacked storage against the list-of-tiles primitives.

``to_global`` / ``set_from_global`` / ``masked_mean`` work on the tile
stack directly (one reshape of its interior); ``HaloExchanger.
gather_global`` / ``scatter_global`` keep the per-tile loop for callers
holding unrelated tile arrays.  Both must move the same cells.
"""

import numpy as np
import pytest

from repro.gcm.grid import Grid, GridParams
from repro.gcm.state import FIELDS_2D, FIELDS_3D, ModelState
from repro.gcm.topography import midlatitude_ridge
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.tiling import Decomposition

NX, NY, NZ = 32, 16, 4


@pytest.fixture(params=[(1, 1), (2, 2), (4, 2), (4, 4), (8, 4)], ids=str)
def state(request):
    px, py = request.param
    decomp = Decomposition(NX, NY, px, py, olx=3)
    params = GridParams(nx=NX, ny=NY, nz=NZ)
    grid = Grid(params, decomp, depth=midlatitude_ridge(NX, NY, ridge_height=2900.0))
    return ModelState.zeros(grid, dtypes={"theta": np.float32})


def test_fields_are_rank_stacks_whose_rows_are_tile_views(state):
    tile = state.grid.decomp.tiles[0]
    n = state.grid.decomp.n_ranks
    for name in FIELDS_3D:
        assert state[name].shape == (n,) + tile.shape3d(NZ)
    for name in FIELDS_2D:
        assert state[name].shape == (n,) + tile.shape2d
    assert state["theta"].dtype == np.float32 and state["u"].dtype == np.float64
    state["u"][n - 1][...] = 7.0  # the per-rank spelling writes through
    assert state["u"][n - 1].base is not None and np.all(state["u"][-1] == 7.0)


@pytest.mark.parametrize("name", ["u", "theta", "ps"])
def test_set_from_global_matches_scatter_then_exchange(state, name):
    decomp = state.grid.decomp
    rng = np.random.default_rng(3)
    shape = (NY, NX) if name == "ps" else (NZ, NY, NX)
    g = rng.standard_normal(shape)
    state[name][...] = 99.0  # stale wall halos must not survive
    state.set_from_global(name, g)
    tiles = HaloExchanger(decomp).scatter_global(g)
    exchange_halos(decomp, tiles)
    expected = np.stack(tiles).astype(state[name].dtype)
    np.testing.assert_array_equal(state[name], expected)


@pytest.mark.parametrize("name", ["u", "theta", "ps"])
def test_to_global_matches_gather(state, name):
    decomp = state.grid.decomp
    rng = np.random.default_rng(4)
    state[name][...] = rng.standard_normal(state[name].shape)
    expected = HaloExchanger(decomp).gather_global(list(state[name]))
    got = state.to_global(name)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    got[...] = 0.0  # a copy: the state is untouched
    assert np.any(state[name] != 0.0)


def test_masked_mean_matches_the_per_tile_sum(state):
    decomp, grid = state.grid.decomp, state.grid
    rng = np.random.default_rng(5)
    state["tracer"][...] = rng.standard_normal(state["tracer"].shape)
    num = den = 0.0
    for r, t in enumerate(decomp.tiles):
        sl = (slice(None),) + t.interior
        vol = grid.cell_volumes(r)[sl]
        num += float(np.sum(state["tracer"][r][sl] * vol))
        den += float(np.sum(vol))
    # one global sum instead of a sum of per-tile sums: same terms,
    # another association
    assert state.masked_mean("tracer") == pytest.approx(num / den, rel=1e-12)
    assert den > 0 and np.count_nonzero(grid.hfac_c == 0) > 0  # land is excluded
