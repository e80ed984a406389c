"""``comm_terms``: the one mapping from a configuration to its
tgsum / texchxy / texchxyz, and ``Decomposition.critical_rank``."""

import json
from pathlib import Path

import pytest

from repro.backend import AnalyticBackend, large_sweep, resolve_backend, sweep_point
from repro.core import pfpp
from repro.core.pfpp import (
    CommTerms,
    PfppRow,
    best_collectives_table,
    comm_terms,
    fig12_table,
    reference_decomposition,
    topology_scoreboard,
)
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)
from repro.parallel.tiling import Decomposition

RECORDED = json.loads(Path(__file__).with_name("table_snapshot.json").read_text())

RANKS = Decomposition(128, 64, 4, 4, olx=3)
MASTERS = Decomposition(128, 64, 2, 4, olx=1)


def hyades(model, nz=10):
    """The production mapping: 16 ranks mix-mode, DS on the 8 masters."""
    return comm_terms(model, RANKS, nz, ds_decomp=MASTERS, mixmode=True)


class TestHyadesMapping:
    def test_fig11_terms_bit_exact(self):
        """The floats the pre-``comm_terms`` code quoted (commit 2a68ba0)."""
        atm = hyades(arctic_cost_model())
        assert atm == CommTerms(
            1.35e-05, 0.00011767272727272726, 0.0016157506493506492, "butterfly"
        )
        assert hyades(arctic_cost_model(), nz=30).texchxyz == 0.004572051948051947

    def test_fig11_terms_in_microseconds(self):
        tgsum, texchxy, texchxyz, _ = hyades(arctic_cost_model())
        assert tgsum * 1e6 == pytest.approx(13.5)
        assert texchxy * 1e6 == pytest.approx(117.67, abs=0.005)
        assert texchxyz * 1e6 == pytest.approx(1615.75, abs=0.005)
        ocean = hyades(arctic_cost_model(), nz=30).texchxyz
        assert ocean * 1e6 == pytest.approx(4572.05, abs=0.005)

    @pytest.mark.parametrize(
        "model",
        [fast_ethernet_cost_model(), gigabit_ethernet_cost_model(), arctic_cost_model()],
        ids=lambda m: m.name,
    )
    def test_every_fig12_row(self, model):
        """Arctic on the production mapping, the Ethernets flat over all
        16 ranks — each row as recorded before the refactor."""
        smp = model.slave_bw_factor is not None
        terms = comm_terms(
            model, RANKS, 10, ds_decomp=MASTERS if smp else None, mixmode=smp
        )
        (recorded,) = [
            r for r in RECORDED["fig12_table(from_models=True)"]
            if r["name"] == model.name
        ]
        for field in ("tgsum", "texchxy", "texchxyz"):
            assert repr(getattr(terms, field)) == recorded[field]
        assert terms.gsum_algorithm == ("butterfly" if smp else "mpi-fit")

    def test_backend_and_its_model_agree(self):
        """The uncalibrated analytic tier is its model plus nothing."""
        be = resolve_backend(None)
        assert hyades(be) == hyades(be.model)
        flat = reference_decomposition(64)[0]
        assert comm_terms(be, flat, 10) == comm_terms(be.model, flat, 10)

    def test_gsum_nbytes_reaches_a_backend(self):
        be = AnalyticBackend()
        wide = comm_terms(be, RANKS, 10, gsum_nbytes=8)
        narrow = comm_terms(be, RANKS, 10, gsum_nbytes=4, itemsize=4)
        assert narrow.tgsum == be.gsum_time(16, 4) <= wide.tgsum
        assert narrow.texchxyz < wide.texchxyz


class TestCriticalRank:
    @pytest.mark.parametrize(
        "decomp",
        [
            Decomposition(128, 64, 1, 1, olx=3),
            Decomposition(128, 64, 2, 1, olx=3),
            Decomposition(128, 64, 4, 4, olx=3),
            Decomposition(128, 64, 8, 8, olx=1),
            reference_decomposition(4096)[0],
            Decomposition.strips(128, 64, 16, olx=3),
            Decomposition(128, 64, 2, 4, olx=1),
        ],
        ids=lambda d: f"{d.px}x{d.py}",
    )
    def test_equals_the_per_site_lambda(self, decomp):
        """What thirteen call sites used to spell out, for any field shape."""
        for kw in (dict(nz=1, width=1), dict(nz=10), dict(nz=30, itemsize=4)):
            old = max(
                range(decomp.n_ranks),
                key=lambda r: sum(decomp.edge_bytes(rank=r, **kw)),
            )
            assert decomp.critical_rank == old

    @pytest.mark.parametrize("periodic_x", [True, False])
    @pytest.mark.parametrize("periodic_y", [True, False])
    def test_closed_form_equals_the_scan_over_every_rank(self, periodic_x, periodic_y):
        """The scan ``critical_rank`` used to run, on every process grid
        to 8x8 (strips are the ``py == 1`` / ``px == 1`` rows), square
        and oblong tiles, walls and wraps on either axis."""
        for px in range(1, 9):
            for py in range(1, 9):
                for nx, ny in ((840, 840), (1680, 840), (840, 1680)):
                    decomp = Decomposition(
                        nx, ny, px, py, periodic_x=periodic_x, periodic_y=periodic_y
                    )
                    volumes = [
                        sum(decomp.edge_bytes(width=1, rank=r)) for r in range(decomp.n_ranks)
                    ]
                    assert decomp.critical_rank == volumes.index(max(volumes)), (px, py)

    def test_interior_tile_prices_like_rank_5_on_4x4(self):
        """The hard-coded ``rank=5`` of the Hyades call sites."""
        assert RANKS.edge_bytes(nz=10, rank=RANKS.critical_rank) == RANKS.edge_bytes(
            nz=10, rank=5
        )


class TestQuotingFailures:
    def test_rank_count_cannot_disagree_with_the_decomposition(self):
        """``interconnect_comm_times(model, n_ranks=64)`` priced the 4x4
        tiles with a 64-rank shared-medium volume; the count now comes
        from the decomposition."""
        assert not hasattr(pfpp, "interconnect_comm_times")
        fe = fast_ethernet_cost_model()
        big = reference_decomposition(64)[0]
        edges = big.edge_bytes(nz=10, rank=big.critical_rank)
        assert comm_terms(fe, big, 10).texchxyz == fe.exchange_time(edges, n_ranks=64)
        edges = RANKS.edge_bytes(nz=10, rank=5)
        assert comm_terms(fe, RANKS, 10).texchxyz == fe.exchange_time(edges, n_ranks=16)

    @pytest.mark.parametrize("bad", [1, 0, -4, 3, 48, 16.0])
    def test_sweep_point_names_n_nodes(self, bad):
        with pytest.raises(ValueError, match="n_nodes must be a power of two >= 2"):
            sweep_point(bad, "analytic")

    def test_large_sweep_of_one_node_rejected_up_front(self):
        with pytest.raises(ValueError, match="n_nodes"):
            large_sweep([1])

    def test_single_rank_decomposition_names_decomp(self):
        with pytest.raises(ValueError, match="decomp has 1 rank"):
            comm_terms(arctic_cost_model(), Decomposition(128, 64, 1, 1), 10)


class TestOneRowType:
    def test_every_table_returns_pfpp_rows(self):
        rows = (
            fig12_table()
            + fig12_table(from_models=False)
            + best_collectives_table((16,))
            + topology_scoreboard(("fattree", "ethernet"), n_values=(16,))
        )
        assert {type(r) for r in rows} == {PfppRow}
        for r in rows:
            assert r.topology == r.name
            assert r.n_nodes == r.grid[0] * r.grid[1] == 16
