"""Tests for the butterfly global sum (Fig. 8) and its DES realization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import DESBackend
from repro.collectives.des_exec import des_run_schedule, des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.collectives.semantics import run_schedule
from repro.hardware import HyadesCluster, HyadesConfig
from repro.parallel.globalsum import (
    GlobalSummer,
    butterfly_global_sum,
    canonical_fold_reduce,
    tree_reduce_broadcast,
)


def butterfly_rounds(n):
    """Per round, the (rank, partner) pairs of the butterfly's wire."""
    col = allreduce_butterfly(n, 8).columns
    src, dst, b = col.src.tolist(), col.dst.tolist(), col.bounds.tolist()
    return [list(zip(src[lo:hi], dst[lo:hi])) for lo, hi in zip(b, b[1:])]


class TestButterflyAlgorithm:
    def test_eight_way_matches_fig8_partials(self):
        """Reproduce the partial sums annotated in the paper's Fig. 8."""
        d = [float(i) for i in range(8)]
        results, trace = butterfly_global_sum(d, record_rounds=True)
        # Round 0: node 0 and 1 hold d0+d1; node 6 and 7 hold d6+d7.
        assert trace[0][0] == trace[0][1] == d[0] + d[1]
        assert trace[0][6] == trace[0][7] == d[6] + d[7]
        # Round 1: nodes 0-3 hold d0+d1+d2+d3.
        for r in range(4):
            assert trace[1][r] == d[0] + d[1] + d[2] + d[3]
        for r in range(4, 8):
            assert trace[1][r] == d[4] + d[5] + d[6] + d[7]
        # Round 2: everyone holds the total.
        assert all(v == sum(d) for v in trace[2])
        assert results == [sum(d)] * 8

    def test_round_partials_group_by_low_bits(self):
        """After round i, node r holds the sum of the group whose ids
        differ from r only in the lowest i+1 bits (Section 4.2)."""
        n = 16
        vals = [float(3 * i + 1) for i in range(n)]
        _, trace = butterfly_global_sum(vals, record_rounds=True)
        for i, partials in enumerate(trace):
            mask = ~((1 << (i + 1)) - 1)
            for r in range(n):
                group = [vals[s] for s in range(n) if (s & mask) == (r & mask)]
                assert partials[r] == pytest.approx(math.fsum(group))

    def test_results_bitwise_identical_across_ranks(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(32).tolist()
        results, _ = butterfly_global_sum(vals)
        assert len({v.hex() for v in results}) == 1

    def test_non_power_of_two_folds(self):
        """Extras fold onto the base group (pre/post rounds), and every
        rank still finishes with the canonical bitwise-identical sum."""
        rng = np.random.default_rng(11)
        for n in (3, 5, 6, 7, 12, 13):
            vals = rng.standard_normal(n).tolist()
            results, _ = butterfly_global_sum(vals)
            assert len({v.hex() for v in results}) == 1
            assert results[0] == pytest.approx(math.fsum(vals), rel=1e-12)
            assert results[0] == canonical_fold_reduce(vals)

    def test_non_power_of_two_rounds_pattern(self):
        rounds = butterfly_rounds(5)
        # fold-in, 2 butterfly rounds over the base 4, fold-out
        assert rounds[0] == [(4, 0)]
        assert rounds[-1] == [(0, 4)]
        assert len(rounds) == 4

    def test_single_value(self):
        results, trace = butterfly_global_sum([5.0])
        assert results == [5.0] and trace == []

    def test_rounds_pattern(self):
        rounds = butterfly_rounds(8)
        assert len(rounds) == 3
        assert (0, 1) in rounds[0]
        assert (0, 2) in rounds[1]
        assert (0, 4) in rounds[2]

    def test_message_count_n_log_n(self):
        # Each round every node sends one message: N log2 N total.
        n = 16
        total = sum(len(r) for r in butterfly_rounds(n))
        assert total == n * int(math.log2(n))


class TestTreeBaseline:
    def test_tree_matches_butterfly_value(self):
        vals = [float(i) * 0.5 for i in range(16)]
        bf, _ = butterfly_global_sum(vals)
        tr, rounds = tree_reduce_broadcast(vals)
        assert tr[0] == pytest.approx(bf[0])
        assert rounds == 8  # 2 log2 16: twice the butterfly's latency

    def test_tree_bitwise_matches_butterfly_non_pow2(self):
        rng = np.random.default_rng(3)
        for n in (5, 11, 16):
            vals = rng.standard_normal(n).tolist()
            bf, _ = butterfly_global_sum(vals)
            tr, _ = tree_reduce_broadcast(vals)
            assert tr[0].hex() == bf[0].hex()


class TestGlobalSummer:
    def test_flat_sum(self):
        gs = GlobalSummer(8)
        assert gs([1.0] * 8) == pytest.approx(8.0)

    def test_smp_hierarchical_sum(self):
        gs = GlobalSummer(16, cpus_per_node=2)
        vals = [float(i) for i in range(16)]
        assert gs(vals) == pytest.approx(sum(vals))
        assert gs.n_nodes == 8
        assert gs.message_count() == 8 * 3

    def test_wrong_length_rejected(self):
        gs = GlobalSummer(8)
        with pytest.raises(ValueError):
            gs([1.0] * 7)

    def test_indivisible_ranks_rejected(self):
        with pytest.raises(ValueError):
            GlobalSummer(6, cpus_per_node=4)

    def test_non_power_of_two_nodes_allowed(self):
        gs = GlobalSummer(6)
        vals = [float(i) for i in range(6)]
        assert gs(vals) == pytest.approx(sum(vals))
        # fold messages: m log2 m + 2 extras = 4*2 + 2*2
        assert gs.message_count() == 12

    def test_auto_algorithm_exposes_plan(self):
        gs = GlobalSummer(16, algorithm="auto")
        assert gs.plan is not None
        assert gs.algorithm == gs.plan.algorithm
        # doubleword sums at 16 nodes: the paper's butterfly must win
        assert gs.algorithm == "butterfly"
        assert gs([1.0] * 16) == pytest.approx(16.0)


def _des_gsum_time(n):
    cluster = HyadesCluster(HyadesConfig(n_nodes=max(n, 16)))
    return des_time_schedule(cluster, allreduce_butterfly(n, 8))


class TestDESGlobalSum:
    """The Fig. 8 butterfly as a schedule on the one DES executor."""

    paper = {2: 4.0e-6, 4: 8.3e-6, 8: 12.8e-6, 16: 18.2e-6}

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_value_correct(self, n):
        sch = allreduce_butterfly(n, 8)
        vals = [0.1 * (i + 1) for i in range(n)]
        res, _ = des_run_schedule(HyadesCluster(), sch, vals)
        ref = run_schedule(sch, vals)
        assert [r.tobytes() for r in res] == [r.tobytes() for r in ref]
        assert all(r[0] == butterfly_global_sum(vals)[0][0] for r in res)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_latency_within_10pct_of_paper(self, n):
        assert _des_gsum_time(n) == pytest.approx(self.paper[n], rel=0.10)

    def test_latency_grows_with_log_n(self):
        """Pinned: k rounds cost k x (os + GSUM_SW_COST + or) = k x 4.22 us;
        any drift in the executor's butterfly moves the DES tier."""
        for k in range(1, 7):
            assert _des_gsum_time(2**k) == pytest.approx(k * 4.22e-6, rel=1e-12)

    def test_fig8_partials_on_wire(self):
        sch = allreduce_butterfly(8, 8)
        for i, rnd in enumerate(sch.rounds):
            for s in rnd:
                assert s.dst == s.src ^ (1 << i)
                # the payload is the partial over the sender's 2^i-group
                group = s.src >> i << i
                assert {it[1] for it in s.items} == set(range(group, group + (1 << i)))
        vals = [float(i) for i in range(8)]
        res, _ = des_run_schedule(HyadesCluster(), sch, vals)
        assert all(r[0] == sum(vals) for r in res)

    def test_barrier_is_a_dataless_gsum(self):
        be = DESBackend()
        assert be.barrier_time(16) == be.gsum_time(16) == _des_gsum_time(16)
        assert be.barrier_time(16) == pytest.approx(self.paper[16], rel=0.10)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_backend_quotes_the_executor_off_powers_of_two(self, n):
        assert DESBackend().gsum_time(n) == _des_gsum_time(n)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64))
@settings(max_examples=50)
def test_property_butterfly_equals_fsum(vals):
    # pad to power of two with zeros
    n = 1
    while n < len(vals):
        n *= 2
    padded = list(vals) + [0.0] * (n - len(vals))
    results, _ = butterfly_global_sum(padded)
    assert results[0] == pytest.approx(math.fsum(vals), rel=1e-12, abs=1e-9)


@given(st.integers(min_value=0, max_value=5))
def test_property_all_ranks_agree(exp):
    n = 2**exp
    rng = np.random.default_rng(exp)
    vals = rng.standard_normal(n).tolist()
    results, _ = butterfly_global_sum(vals)
    assert len(set(results)) == 1
