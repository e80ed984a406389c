"""Invariants of the step, over the ``test_longrun`` horizon.

Claims backed by properties rather than by examples (ROADMAP 4a):
tracer mass and fluid volume are conserved to round-off, kinetic energy
stays bounded, and the global state does not depend on how the grid is
tiled — bit for bit where the global sum's fold order coincides, to a
stated bound otherwise.
"""

import dataclasses

import numpy as np
import pytest

from repro.gcm import diagnostics as diag
from repro.gcm.atmosphere import atmosphere_model
from repro.gcm.ocean import ocean_config, ocean_model
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator, depth_integrate
from repro.gcm.topography import midlatitude_ridge
from repro.parallel.exchange import exchange_halos

NX, NY, NZ = 32, 16, 4
TILINGS = [(1, 1), (2, 2), (4, 2), (4, 4), (8, 4)]
#: round-off per step on a double-precision inventory of O(NX*NY*NZ) terms
ROUND_OFF = 64 * np.finfo(float).eps


@pytest.fixture(scope="module", params=["centered", "upwind"])
def unforced_ocean(request):
    """200 unforced steps over shaved cells with lateral gradients in
    both tracers.  ``kz = 0``: the vertical-diffusion operator ignores
    partial-cell thickness and is conservative only on a flat bottom."""
    dynamics = dataclasses.replace(
        ocean_config().dynamics, kz=0.0, advection_scheme=request.param
    )
    m = ocean_model(
        nx=NX, ny=NY, nz=NZ, px=2, py=2, dt=1800.0, physics=None, dynamics=dynamics,
        depth=midlatitude_ridge(NX, NY, ridge_height=2900.0),
    )
    theta, salt = m.state.to_global("theta"), m.state.to_global("tracer")
    theta[:, :, : NX // 2] += 1.0
    salt[:, NY // 4 : NY // 2, :] += 0.5
    m.state.set_from_global("theta", theta)
    m.state.set_from_global("tracer", salt)
    before = {n: diag.tracer_inventory(m, n) for n in ("theta", "tracer")}
    energy, divergence = [], []
    for _ in range(10):
        m.run(20)
        energy.append(diag.total_kinetic_energy(m))
        divergence.append(diag.depth_integrated_divergence(m))
    return m, before, energy, divergence


class TestConservation:
    @pytest.mark.parametrize("name", ["theta", "tracer"])
    def test_tracer_mass_conserved_to_round_off(self, unforced_ocean, name):
        m, before, _, _ = unforced_ocean
        drift = abs(diag.tracer_inventory(m, name) / before[name] - 1.0)
        assert drift <= ROUND_OFF

    def test_volume_conserved(self, unforced_ocean):
        """The corrected flow is non-divergent in every column to the
        solver's tolerance, and its divergence sums to nothing over the
        closed domain to round-off (the face fluxes telescope)."""
        m, _, _, divergence = unforced_ocean
        speed = np.abs(m.state.to_global("u")).max()
        typical = speed * m.config.grid.total_depth * float(m.grid.dyc.max())
        assert max(divergence) < 1e-5 * typical

        u, v = m.state["u"].copy(), m.state["v"].copy()
        exchange_halos(m.decomp, u)
        exchange_halos(m.decomp, v)
        ui, vi = depth_integrate(m.grid, slice(None), u, v, FlopCounter())
        fluxes = m.decomp.to_global(np.abs(ui * m.grid.dyg) + np.abs(vi * m.grid.dxg))
        total = m.decomp.to_global(EllipticOperator(m.grid).divergence(ui, vi))
        assert abs(total.sum()) <= ROUND_OFF * fluxes.sum()

    def test_energy_bounded(self, unforced_ocean):
        """The only energy source is the 1 K front: the flow it drives
        cannot outrun the reduced-gravity wave it launches, so kinetic
        energy stays under ``c^2 / 2`` per unit volume all along."""
        m, _, energy, _ = unforced_ocean
        assert diag.is_finite(m)
        eos, grid = m.config.eos, m.config.grid
        c2 = eos.constants.gravity * eos.alpha * 1.0 * grid.total_depth
        volume = m.decomp.to_global(m.grid.cell_volumes(slice(None))).sum()
        assert max(energy) < 0.5 * c2 * volume


def _run(build, px, py, **kw):
    m = build(nx=NX, ny=NY, nz=NZ, px=px, py=py, dt=600.0, cg_tol=1e-12, **kw)
    m.run(12)
    return {n: m.state.to_global(n) for n in ("u", "v", "w", "theta", "tracer", "ps")}


@pytest.fixture(scope="module", params=["ocean", "atmosphere"])
def by_tiling(request):
    if request.param == "ocean":
        kw = dict(depth=midlatitude_ridge(NX, NY, ridge_height=2900.0))
        return {t: _run(ocean_model, *t, **kw) for t in TILINGS}
    return {t: _run(atmosphere_model, *t) for t in TILINGS}


class TestDecompositionInvariance:
    """Kernels see only their tile plus halo, so tiling enters the
    arithmetic through one door: the CG dot products are summed tile by
    tile and folded by the butterfly, and a different fold order moves
    the last bits of alpha and beta."""

    def test_bit_exact_where_the_fold_order_coincides(self, by_tiling):
        # 1x1 solves on one DS tile, 2x2 on two (1x2): NumPy's pairwise
        # sum of the whole interior splits first into exactly those
        # halves, so the two runs perform identical additions.
        for name, ref in by_tiling[1, 1].items():
            np.testing.assert_array_equal(by_tiling[2, 2][name], ref, err_msg=name)

    @pytest.mark.parametrize("tiling", TILINGS[2:])
    def test_within_the_stated_bound_elsewhere(self, by_tiling, tiling):
        # measured 1e-12 of the field's range after 12 steps at
        # cg_tol = 1e-12; the bound leaves two decades
        for name, ref in by_tiling[1, 1].items():
            scale = np.abs(ref).max()
            assert np.abs(by_tiling[tiling][name] - ref).max() <= 1e-10 * scale, name
