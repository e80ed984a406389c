"""Structural and data-flow validation of every collective schedule."""

import math

import pytest

from repro.collectives.schedules import (
    BUILDERS,
    ITEMS_EXACT_MAX_N,
    OPS,
    POW2_ONLY,
    Schedule,
    build,
    candidates,
)

NS = (2, 3, 4, 5, 8, 12, 16)


def all_cases():
    for op in OPS:
        for n in NS:
            for alg in candidates(op, n):
                yield op, alg, n


@pytest.mark.parametrize("op,alg,n", list(all_cases()))
def test_every_candidate_validates(op, alg, n):
    sch = build(op, alg, n, 64)
    sch.validate()
    assert sch.op == op and sch.algorithm == alg and sch.n == n


@pytest.mark.parametrize("op,alg", sorted(POW2_ONLY))
def test_pow2_only_algorithms_reject_other_counts(op, alg):
    with pytest.raises(ValueError, match="power-of-two"):
        build(op, alg, 6, 64)
    # ... and are simply absent from the candidate set
    assert alg not in candidates(op, 6)
    assert alg in candidates(op, 8)


def test_unknown_op_and_algorithm_rejected():
    with pytest.raises(ValueError):
        build("scan", "butterfly", 8, 8)
    with pytest.raises(ValueError):
        build("allreduce", "hypercube", 8, 8)


class TestShapes:
    def test_butterfly_rounds_and_messages(self):
        sch = build("allreduce", "butterfly", 16, 8)
        assert sch.n_rounds == 4
        assert sch.total_messages == 16 * 4

    def test_butterfly_non_pow2_adds_fold_rounds(self):
        sch = build("allreduce", "butterfly", 5, 8)
        # fold-in + log2(4) butterfly rounds + fold-out
        assert sch.n_rounds == 4
        assert sch.total_messages == 4 * 2 + 2 * 1

    def test_ring_allreduce_is_2n_minus_2_rounds(self):
        sch = build("allreduce", "ring", 7, 7 * 8)
        assert sch.n_rounds == 2 * 6
        assert sch.total_messages == 2 * 6 * 7

    def test_dissemination_barrier_round_count(self):
        for n in NS:
            sch = build("barrier", "dissemination", n, 0)
            assert sch.n_rounds == math.ceil(math.log2(n))

    def test_alltoall_bruck_logarithmic(self):
        sch = build("alltoall", "bruck", 13, 8)
        assert sch.n_rounds == math.ceil(math.log2(13))

    def test_total_bytes_counts_wire_minimum(self):
        sch = build("barrier", "dissemination", 4, 0)
        # dataless sends still occupy a minimum wire packet
        assert sch.total_bytes == sch.total_messages * 8


class TestElision:
    def test_small_rings_carry_exact_items(self):
        sch = build("allreduce", "ring", ITEMS_EXACT_MAX_N, 8)
        assert not sch.items_elided
        assert all(s.items for rnd in sch.rounds for s in rnd)

    def test_large_rings_are_timing_only(self):
        sch = build("allreduce", "ring", ITEMS_EXACT_MAX_N + 1, 8)
        assert sch.items_elided
        sch.validate()  # structure-only check still runs

    def test_large_ring_refused_by_data_engine(self):
        from repro.collectives.semantics import run_schedule

        with pytest.raises(ValueError, match="timing-only"):
            run_schedule(build("allreduce", "ring", 128, 8))


def test_schedule_validate_catches_bad_dataflow():
    good = build("allreduce", "tree", 4, 8)
    # Drop the first round: later sends ship items never received.
    bad = Schedule(
        good.op, good.algorithm, good.n, good.nbytes, good.chunking,
        good.rounds[1:],
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_registry_covers_every_op():
    assert set(BUILDERS) == set(OPS)
    for op, algs in BUILDERS.items():
        assert algs, f"no algorithms registered for {op}"


class TestElisionEquivalence:
    """Elided (timing-only) schedules must price identically to the
    exact item-carrying builds — same rounds, same src/dst, same bytes."""

    @pytest.mark.parametrize("nbytes", [8, 1000, 65536])
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_rabenseifner_sizes_match_exact(self, monkeypatch, n, nbytes):
        import repro.collectives.schedules as schedules

        exact = build("allreduce", "reduce_scatter_allgather", n, nbytes)
        assert not exact.items_elided
        monkeypatch.setattr(schedules, "ITEMS_EXACT_MAX_N", n - 1)
        elided = build("allreduce", "reduce_scatter_allgather", n, nbytes)
        assert elided.items_elided
        assert len(elided.rounds) == len(exact.rounds)
        for re, rx in zip(elided.rounds, exact.rounds):
            assert [(s.src, s.dst, s.nbytes) for s in re] == [
                (s.src, s.dst, s.nbytes) for s in rx
            ]

    def test_chunk_range_matches_sum(self):
        from repro.collectives.schedules import chunk_nbytes, chunk_range_nbytes

        for nbytes in (8, 100, 65536):
            for n in (4, 8, 64):
                for lo in range(0, n, 3):
                    for hi in range(lo, n + 1, 5):
                        assert chunk_range_nbytes(nbytes, n, lo, hi) == sum(
                            chunk_nbytes(nbytes, n, c) for c in range(lo, hi)
                        )


def test_tuner_drops_quadratic_algorithms_at_large_n():
    """Above DENSE_SCHEDULE_MAX_N the tuner must not even build the
    O(N^2)-message candidates (their schedules alone are huge)."""
    from repro.collectives.tuner import (
        Autotuner,
        DENSE_SCHEDULE_MAX_N,
        QUADRATIC_ALGORITHMS,
    )

    tuner = Autotuner()
    small = tuner.plan("allreduce", DENSE_SCHEDULE_MAX_N, 8)
    assert QUADRATIC_ALGORITHMS & set(small.costs)
    large = tuner.plan("allreduce", 2 * DENSE_SCHEDULE_MAX_N, 8)
    assert not (QUADRATIC_ALGORITHMS & set(large.costs))
    assert large.algorithm in large.costs


class TestBuildMemo:
    """``build()`` shares frozen schedules through a small bounded memo."""

    def test_equal_arguments_return_the_same_object(self):
        first = build("allreduce", "tree", 16, 8)
        assert build("allreduce", "tree", 16, 8) is first
        assert build("allreduce", "tree", 16, 16) is not first

    def test_a_changed_elision_threshold_is_a_different_schedule(self, monkeypatch):
        import repro.collectives.schedules as schedules

        exact = build("allreduce", "ring", 8, 64)
        monkeypatch.setattr(schedules, "ITEMS_EXACT_MAX_N", 7)
        elided = build("allreduce", "ring", 8, 64)
        assert elided is not exact
        assert elided.items_elided and not exact.items_elided

    def test_the_memo_never_exceeds_its_bound(self):
        from repro.collectives.schedules import _build

        bound = _build.cache_info().maxsize
        assert bound is not None and bound <= 8
        for n in range(2, 2 + 3 * bound):
            build("barrier", "dissemination", n, 8)
            assert _build.cache_info().currsize <= bound

    def test_a_memoised_schedule_cannot_be_mutated(self):
        import dataclasses

        import numpy as np

        sch = build("allreduce", "butterfly", 8, 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sch.n = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            sch.rounds[0][0].nbytes = 9
        arrays = [a for a in sch.columns if isinstance(a, np.ndarray)]
        assert len(arrays) == 8
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0
