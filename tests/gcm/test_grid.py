"""Tests for the spherical C-grid metrics and shaved cells."""

import pathlib
import sys

import numpy as np
import pytest

from repro.gcm.grid import Grid, GridParams
from repro.gcm.topography import double_basin, flat_bottom, midlatitude_ridge
from repro.parallel.tiling import Decomposition

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


def make_grid(nx=32, ny=16, nz=4, px=2, py=2, olx=2, depth=None, **kw):
    p = GridParams(nx=nx, ny=ny, nz=nz, **kw)
    d = Decomposition(nx, ny, px, py, olx=olx)
    return Grid(p, d, depth=depth)


class TestMetrics:
    def test_total_area_matches_spherical_band(self):
        g = make_grid(lat0=-60.0, lat1=60.0)
        a = g.c.radius
        want = 2 * np.pi * a**2 * (np.sin(np.deg2rad(60)) - np.sin(np.deg2rad(-60)))
        total = 0.0
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            total += float(np.sum(g.ra[r][o : o + t.ny, o : o + t.nx]))
        assert total == pytest.approx(want, rel=1e-12)

    def test_dx_shrinks_toward_poles(self):
        g = make_grid(lat0=-80, lat1=80)
        o = g.decomp.olx
        # tile 0 is south, tile 2 is north of it (2x2 grid)
        dx_south_edge = g.dxc[0][o, o]
        dx_equator = g.dxc[2][o, o]
        assert dx_south_edge < dx_equator

    def test_dy_uniform(self):
        g = make_grid()
        for r in range(g.n_ranks):
            assert np.allclose(g.dyc[r], g.dyc[r].flat[0])

    def test_coriolis_sign_by_hemisphere(self):
        g = make_grid(lat0=-60, lat1=60)
        o = g.decomp.olx
        assert g.fc[0][o, o] < 0  # southern hemisphere
        assert g.fc[2][-o - 1, o] > 0  # northern

    def test_layer_thicknesses_uniform_default(self):
        g = make_grid(nz=5, total_depth=1000.0)
        assert np.allclose(g.drf, 200.0)
        assert g.z_center[0] == pytest.approx(-100.0)

    def test_custom_drf(self):
        g = make_grid(nz=3, drf=(50.0, 150.0, 800.0))
        assert g.z_center[2] == pytest.approx(-(50 + 150 + 400))

    def test_bad_drf_rejected(self):
        with pytest.raises(ValueError):
            make_grid(nz=3, drf=(50.0, 150.0))
        with pytest.raises(ValueError):
            make_grid(nz=2, drf=(50.0, -1.0))

    def test_grid_decomp_mismatch_rejected(self):
        p = GridParams(nx=32, ny=16)
        d = Decomposition(16, 16, 2, 2)
        with pytest.raises(ValueError):
            Grid(p, d)

    def test_min_dx_positive(self):
        assert make_grid().min_dx() > 0


class TestHFacs:
    def test_flat_bottom_fully_open(self):
        g = make_grid(depth=flat_bottom(32, 16, GridParams().total_depth * 0 + 800.0), total_depth=800.0, nz=4)
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            assert np.all(g.hfac_c[r][:, o : o + t.ny, o : o + t.nx] == 1.0)

    def test_land_closes_cells(self):
        depth = double_basin(32, 16, depth=800.0, continent_width=4, polar_caps=1)
        g = make_grid(depth=depth, total_depth=800.0, nz=4)
        land = depth == 0
        hf = np.zeros((16, 32))
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            hf[t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx] = g.hfac_c[r][
                0, o : o + t.ny, o : o + t.nx
            ]
        assert np.all(hf[land] == 0.0)
        assert np.all(hf[~land] > 0.0)

    def test_partial_cells_on_ridge(self):
        depth = midlatitude_ridge(32, 16, depth=800.0, ridge_height=500.0)
        g = make_grid(depth=depth, total_depth=800.0, nz=4)
        fracs = set()
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            vals = g.hfac_c[r][:, o : o + t.ny, o : o + t.nx]
            fracs.update(np.unique(np.round(vals, 6)).tolist())
        partial = [f for f in fracs if 0.0 < f < 1.0]
        assert partial, "ridge should produce shaved (partial) cells"
        # partial cells respect the minimum fraction
        assert min(partial) >= GridParams().hfac_min

    def test_face_factors_are_min_of_neighbors(self):
        depth = double_basin(32, 16, depth=800.0, continent_width=4, polar_caps=1)
        g = make_grid(depth=depth, total_depth=800.0, nz=4)
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            c = g.hfac_c[r]
            w = g.hfac_w[r]
            # interior faces only
            sl = (slice(None), slice(o, o + t.ny), slice(o + 1, o + t.nx))
            expected = np.minimum(c[..., o : o + t.ny, o : o + t.nx - 1], c[sl])
            np.testing.assert_allclose(w[sl], expected)

    def test_walls_close_meridional_faces(self):
        g = make_grid()
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            if g.decomp.neighbor(r, "south") is None:
                assert np.all(g.hfac_s[r][:, o, :] == 0.0)
            if g.decomp.neighbor(r, "north") is None:
                assert np.all(g.hfac_s[r][:, o + t.ny, :] == 0.0)

    def test_depth_c_integrates_hfac(self):
        g = make_grid(total_depth=800.0, nz=4)
        o = g.decomp.olx
        for r, t in enumerate(g.decomp.tiles):
            np.testing.assert_allclose(
                g.depth_c[r][o : o + t.ny, o : o + t.nx], 800.0
            )

    def test_wet_cell_count(self):
        g = make_grid(total_depth=800.0, nz=4)
        assert g.total_wet_cells() == 32 * 16 * 4

    def test_bad_depth_shape_rejected(self):
        with pytest.raises(ValueError):
            make_grid(depth=np.zeros((4, 4)))

    def test_cell_volumes_positive_where_wet(self):
        g = make_grid()
        v = g.cell_volumes(0)
        assert np.all(v >= 0)
        o = g.decomp.olx
        t = g.decomp.tile(0)
        assert np.all(v[:, o : o + t.ny, o : o + t.nx] > 0)


class TestTopographyGenerators:
    def test_flat_bottom(self):
        from repro.gcm.topography import flat_bottom

        d = flat_bottom(8, 4, 1000.0)
        assert d.shape == (4, 8)
        assert np.all(d == 1000.0)

    def test_double_basin_structure(self):
        from repro.gcm.topography import double_basin

        d = double_basin(32, 16, depth=1000.0, continent_width=4, polar_caps=2)
        assert np.all(d[:, :4] == 0.0)  # western continent
        assert np.all(d[:, 16:20] == 0.0)  # mid continent
        assert np.all(d[:2] == 0.0) and np.all(d[-2:] == 0.0)  # caps
        assert np.all(d[4, 6:14] == 1000.0)  # open basin

    def test_ridge_profile(self):
        from repro.gcm.topography import midlatitude_ridge

        d = midlatitude_ridge(32, 8, depth=1000.0, ridge_height=600.0)
        assert d[:, 16].min() == pytest.approx(400.0, rel=0.01)  # ridge crest
        assert d[:, 0].max() == pytest.approx(1000.0, rel=0.05)  # far field

    def test_bowl_land_rim(self):
        from repro.gcm.topography import bowl

        d = bowl(16, 16, depth=1000.0)
        assert d[0, 0] == 0.0  # corners are land
        assert d[8, 8] > 900.0  # deep center


class TestStackedBuildMatchesPerTileBuild:
    """The grid is built for all tiles at once; the per-tile build it
    replaced lives on in ``tests/gcm/_reference_step.py``.  Values *and*
    dtypes are the fixed behaviour: a float32 grid keeps the float64
    ``dyc``/``dyg`` the per-tile expressions produced, and every kernel
    downstream promotes accordingly."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("px,py,olx", [(1, 1, 3), (2, 2, 1), (4, 2, 3), (8, 4, 3)])
    def test_every_array_bit_for_bit(self, px, py, olx, dtype):
        from _reference_step import reference_grid_arrays

        params = GridParams(nx=32, ny=16, nz=5, lat0=-70.0, lat1=80.0)
        decomp = Decomposition(32, 16, px, py, olx=olx)
        depth = double_basin(32, 16, continent_width=3) * (
            midlatitude_ridge(32, 16, ridge_height=2900.0) / 4000.0
        )
        grid = Grid(params, decomp, depth=depth, dtype=dtype)
        for name, tiles in reference_grid_arrays(grid).items():
            want = np.stack(tiles)
            got = getattr(grid, name)
            if name == "mask_c":  # now bool: multiplies like the 0/1 it held
                assert got.dtype == bool
                want = want.astype(bool)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
