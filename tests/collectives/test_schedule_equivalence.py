"""Schedules built as wire arrays against the per-``Send`` builders they
replaced (``_reference_schedules.py``, kept verbatim).

The library's builders state ``(src, dst, nbytes)`` per round from closed
forms and name the items a message carries only when ``.rounds`` is
read.  Here every registered algorithm is held equal to the oracle:
``columns`` field for field at every rank count (both sides' elided
sizes included), ``.rounds`` ``Send`` for ``Send`` with items wherever
items exist, and :meth:`Schedule.validate` — the independent item-flow
simulation — on everything built.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_schedules as reference
from repro.collectives.schedules import (
    BUILDERS,
    ITEMS_EXACT_MAX_N,
    POW2_ONLY,
    Columns,
    build,
    is_pow2,
)

ALGORITHMS = [(op, alg) for op, algs in BUILDERS.items() for alg in algs]
NS = range(1, 97)
NBYTES = (8, 24, 1000, 4096)
ARRAYS = Columns._fields[:8]
HEADER = ("op", "algorithm", "n", "nbytes", "chunking", "root")


def assert_same_columns(built, oracle):
    for name in HEADER:
        assert getattr(built, name) == getattr(oracle, name), name
    got, want = built.columns, oracle.columns
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name
    for name in ("send_waves", "recv_waves"):
        waves, ref = getattr(got, name), getattr(want, name)
        assert len(waves) == len(ref), name
        for per_round, ref_round in zip(waves, ref):
            assert len(per_round) == len(ref_round), name
            for w, r in zip(per_round, ref_round):
                assert (w == r) if isinstance(r, slice) else np.array_equal(w, r), name


def test_the_oracle_registers_what_the_library_registers():
    assert {op: list(algs) for op, algs in reference.BUILDERS.items()} == {
        op: list(algs) for op, algs in BUILDERS.items()
    }


@pytest.mark.parametrize("op,alg", ALGORITHMS)
def test_columns_equal_the_oracle_field_for_field(op, alg):
    for n in NS:
        if (op, alg) in POW2_ONLY and not is_pow2(n):
            for builder in (BUILDERS[op][alg], reference.BUILDERS[op][alg]):
                with pytest.raises(ValueError, match="power-of-two"):
                    builder(n, 8)
            continue
        for nbytes in NBYTES:
            built = BUILDERS[op][alg](n, nbytes)
            assert_same_columns(built, reference.BUILDERS[op][alg](n, nbytes))
            assert "rounds" not in vars(built)  # priced and compared as arrays alone
            assert built.items_elided == (op != "barrier" and n > ITEMS_EXACT_MAX_N)


@pytest.mark.parametrize("op,alg", ALGORITHMS)
def test_rounds_equal_the_oracle_send_for_send_and_validate(op, alg):
    """Items depend on the rank count alone: one byte count per n (all
    four come round every four counts), every n that carries items."""
    for n in range(1, ITEMS_EXACT_MAX_N + 1):
        if (op, alg) in POW2_ONLY and not is_pow2(n):
            continue
        nbytes = NBYTES[n % len(NBYTES)]
        built = BUILDERS[op][alg](n, nbytes)
        assert built.rounds == reference.BUILDERS[op][alg](n, nbytes).rounds
        assert not built.items_elided
        built.validate()


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ALGORITHMS),
    n=st.integers(1, 40),
    nbytes=st.integers(0, 1 << 17),
    root=st.integers(0, 39),
)
def test_any_payload_size_and_root_builds_the_oracles_schedule(case, n, nbytes, root):
    op, alg = case
    if case in POW2_ONLY:
        n = 1 << (n % 6)
    extra = (root % n,) if op == "broadcast" else ()
    built = BUILDERS[op][alg](n, nbytes, *extra)
    oracle = reference.BUILDERS[op][alg](n, nbytes, *extra)
    assert_same_columns(built, oracle)
    assert built.rounds == oracle.rounds
    built.validate()


@pytest.mark.parametrize("op,alg", ALGORITHMS)
def test_past_the_cap_rounds_are_the_wire_with_no_items(op, alg):
    n = 128
    built = build(op, alg, n, 1000)
    oracle = reference.BUILDERS[op][alg](n, 1000)
    wire = [[(s.src, s.dst, s.nbytes) for s in rnd] for rnd in oracle.rounds]
    assert [[(s.src, s.dst, s.nbytes) for s in rnd] for rnd in built.rounds] == wire
    assert all(s.items == () for rnd in built.rounds for s in rnd)
    built.validate()  # structure (and a barrier's closure) still checked
