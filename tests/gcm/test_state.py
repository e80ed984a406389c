"""ModelState's stacked storage against the list-of-tiles primitives.

``to_global`` / ``set_from_global`` work on the tile stack directly
(one reshape of its interior); ``HaloExchanger.gather_global`` /
``scatter_global`` keep the per-tile loop for callers holding unrelated
tile arrays.  Both must move the same cells.
"""

import numpy as np
import pytest

from repro.gcm.state import FIELDS_2D, FIELDS_3D, ModelState
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.tiling import Decomposition

NX, NY, NZ = 32, 16, 4


@pytest.fixture(params=[(1, 1), (2, 2), (4, 2), (4, 4), (8, 4)], ids=str)
def state(request):
    px, py = request.param
    decomp = Decomposition(NX, NY, px, py, olx=3)
    return ModelState.zeros(decomp, NZ, dtypes={"theta": np.float32})


def test_fields_are_rank_stacks_whose_rows_are_tile_views(state):
    tile = state.decomp.tiles[0]
    n = state.decomp.n_ranks
    for name in FIELDS_3D:
        assert state[name].shape == (n,) + tile.shape3d(NZ)
    for name in FIELDS_2D:
        assert state[name].shape == (n,) + tile.shape2d
    assert state["theta"].dtype == np.float32 and state["u"].dtype == np.float64
    state["u"][n - 1][...] = 7.0  # the per-rank spelling writes through
    assert state["u"][n - 1].base is not None and np.all(state["u"][-1] == 7.0)


@pytest.mark.parametrize("name", ["u", "theta", "ps"])
def test_set_from_global_matches_scatter_then_exchange(state, name):
    decomp = state.decomp
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
    decomp = state.decomp
    rng = np.random.default_rng(4)
    state[name][...] = rng.standard_normal(state[name].shape)
    expected = HaloExchanger(decomp).gather_global(list(state[name]))
    got = state.to_global(name)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    got[...] = 0.0  # a copy: the state is untouched
    assert np.any(state[name] != 0.0)
